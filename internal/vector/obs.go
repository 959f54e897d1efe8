package vector

import "vxml/internal/obs"

// Vector-layer counters: extents decoded by scans (one increment each time
// a cursor walks an extent's records, either codec; the name predates
// extents) and bytes inflated from DEFLATE extents. Extent granularity
// keeps the hot Scan loop free of per-value accounting — the
// per-evaluation value counts live in core.EvalStats.
var (
	obsPagesScanned  = obs.GetCounter("vector.pages_scanned")
	obsBytesInflated = obs.GetCounter("vector.bytes_inflated")
)
