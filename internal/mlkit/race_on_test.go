//go:build race

package mlkit

// raceEnabled reports whether the race detector is active; allocation
// pins are skipped under it because the instrumentation allocates.
const raceEnabled = true
