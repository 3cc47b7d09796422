//go:build !race

package pass_test

const raceEnabled = false
