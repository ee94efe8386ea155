//go:build race

package collective

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of Puts at random, so pooled-run allocation counts are not fixed.
const raceEnabled = true
