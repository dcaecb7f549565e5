package lint

// All returns the analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{ChunkMath, GoJoin, AtomicDiscipline, WireBounds}
}
