//go:build race

package nlu

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under it because the detector
// itself allocates shadow state on hot paths.
const raceEnabled = true
