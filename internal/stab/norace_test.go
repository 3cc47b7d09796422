//go:build !race

package stab

const raceEnabled = false
