package analysis

// Suite returns every analyzer in the repository's invariant suite, in the
// order vxlint runs them: the per-package passes first, then lockorder,
// which runs once over the whole program's call graph.
func Suite() []*Analyzer {
	return []*Analyzer{
		CorruptErr(),
		CtxPoll(),
		LockGuard(),
		ObsNames(),
		RecoverScope(),
		LockOrder(),
	}
}
