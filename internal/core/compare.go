package core

import "vxml/internal/xq"

// compareValues delegates to the shared xq semantics so the engine and the
// DOM reference interpreter agree exactly (differential tests depend on
// this); selections compare through xq.Bound, the same rule.
func compareValues(a, b string) int { return xq.CompareValues(a, b) }
