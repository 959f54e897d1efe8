package vector

import "vxml/internal/obs"

// Vector-layer counters: pages consumed by scans (one increment per page
// of records walked, both formats) and bytes inflated from DEFLATE pages. Page granularity keeps the hot Scan loop free of per-value
// accounting — the per-evaluation value counts live in core.EvalStats.
var (
	obsPagesScanned  = obs.GetCounter("vector.pages_scanned")
	obsBytesInflated = obs.GetCounter("vector.bytes_inflated")
)
