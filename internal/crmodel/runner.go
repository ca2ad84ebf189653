package crmodel

// RunSeed derives the seed for run index i from the experiment's base
// seed with a SplitMix64-style mix, so neighbouring runs are uncorrelated.
// Every tier's runner (internal/experiments) draws this one sequence, so
// per-seed results are comparable across tiers.
func RunSeed(base uint64, i int) uint64 {
	x := base + 0x9e3779b97f4a7c15*uint64(i+1)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
