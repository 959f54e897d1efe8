// Fixture for the obsnames analyzer's span-name checks: names are
// package-level dotted lowercase constants starting with the package
// name, and each name belongs to exactly one Start call site.
package spannames

import (
	"context"

	"obs"
)

const (
	spanQuery   = "spannames.query"
	spanScatter = "spannames.scatter"
	spanMerge   = "spannames.merge"
	spanForeign = "serve.request"
	spanUpper   = "spannames.Query"
)

func trace(ctx context.Context, tr *obs.SpanTrace) {
	ctx, root := tr.Start(ctx, spanQuery)
	defer root.End()
	ctx, sp := obs.StartSpan(ctx, spanScatter)
	defer sp.End()
	_, msp := obs.StartSpan(ctx, spanMerge)
	defer msp.End()
}

func bad(ctx context.Context, tr *obs.SpanTrace) {
	_, _ = obs.StartSpan(ctx, "spannames.inline") // want `span name must be a package-level string constant`
	local := "spannames.local"
	_, _ = obs.StartSpan(ctx, local)       // want `span name must be a package-level string constant`
	_, _ = obs.StartSpan(ctx, spanForeign) // want `first segment must be the package name`
	_, _ = obs.StartSpan(ctx, spanUpper)   // want `does not match the <pkg>\.<dotted_name> convention`
	_, _ = obs.StartSpan(ctx, spanQuery)   // want `span name "spannames.query" started at more than one call site`
	_, _ = tr.Start(ctx, spanMerge)        // want `span name "spannames.merge" started at more than one call site`
}
