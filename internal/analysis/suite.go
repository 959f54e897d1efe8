package analysis

// Suite returns every analyzer in the repository's invariant suite, in the
// order vxlint runs them: the per-package passes first, then the four
// whole-program passes that run once over the call graph.
func Suite() []*Analyzer {
	return []*Analyzer{
		CorruptErr(),
		CtxPoll(),
		FsyncOrder(),
		LockGuard(),
		ObsNames(),
		RecoverScope(),
		FaultFlow(),
		GoLeak(),
		HotAlloc(),
		LockOrder(),
	}
}
