package storage

import "vxml/internal/obs"

// Process-wide storage counters in the obs registry, alongside the
// per-pool Stats snapshots: Stats answers "what did this pool do",
// the registry answers "what is the process doing" (served at /metrics
// and /debug/vars). Counters are resolved once at package init; each
// event costs one atomic add on paths that already do page I/O.
var (
	obsPoolHits      = obs.GetCounter("storage.pool.hits")
	obsPoolMisses    = obs.GetCounter("storage.pool.misses")
	obsPoolReads     = obs.GetCounter("storage.pool.pages_read")
	obsPoolWrites    = obs.GetCounter("storage.pool.pages_written")
	obsPoolEvictions = obs.GetCounter("storage.pool.evictions")
	obsCkVerified    = obs.GetCounter("storage.checksum.pages_verified")
	obsCkFailures    = obs.GetCounter("storage.checksum.failures")

	obsReadRetries        = obs.GetCounter("storage.read_retries")
	obsReadRetryExhausted = obs.GetCounter("storage.read_retry_exhausted")
	obsCorruptRereads     = obs.GetCounter("storage.corrupt_rereads")
	obsQuarantineAdded    = obs.GetCounter("storage.quarantine_added")
	obsQuarantined        = obs.GetGauge("storage.quarantined")
)
