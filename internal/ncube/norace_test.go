//go:build !race

package ncube

const raceEnabled = false
