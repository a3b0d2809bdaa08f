//go:build race

package serve

// raceEnabled reports that this test binary was built with -race, which
// degrades sync.Pool (items are intentionally dropped) and so invalidates
// steady-state allocation counts on pooled paths.
const raceEnabled = true
