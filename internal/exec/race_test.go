//go:build race

package exec

// raceEnabled reports that this binary was built with the race
// detector, under which sync.Pool drops what it is handed at random, so
// a pooled encode buffer allocates again.
const raceEnabled = true
