package main

import (
	"math"
	"slices"
	"time"
)

// Machine speed drift. On the shared 2-core machine this benchmark was
// sized on, the speed at which the same process runs the same code moves
// by a third within minutes (serve CPU per decision 1.44–2.40 µs across
// one ten-minute set of runs, with every timing moving together), while
// every figure inside one run is steady. A fixed calibration kernel,
// written here and sharing no code with the program, slows down with the
// machine: over 150 s of back-to-back serve rounds, CPU per decision
// spread 27% (interquartile range over median of 10-round windows),
// the kernel's time 25%, and their ratio 5%.
//
// So every timing is taken between two calibrations and reported at
// reference speed: divided by the mean of their slowdowns. A change to
// the program cannot move the kernel, so it moves the reported figure as
// much as the raw one. The slowdowns of a run are summarized on
// standard error.

// calRefNS is one calibration pass's time at reference speed.
const calRefNS = 3e6

var (
	calSink uint64
	// slowdowns records every calibration of the run (main goroutine
	// only), for the log.
	slowdowns []float64
)

// calPass runs the calibration kernel once: a mix of what the program
// does, a float sigmoid layer, integer hashing and sorting a small
// table. It allocates nothing.
func calPass() time.Duration {
	var buf [4096]uint32
	t := time.Now()
	x := 0.0
	h := uint64(1469598103934665603)
	for i := 0; i < 20000; i++ {
		s := 0.0
		for k := 0; k < 8; k++ {
			s += float64(k+i%7) * 0.01
		}
		x += 1 / (1 + math.Exp(-s))
		for k := 0; k < 8; k++ {
			h ^= uint64(i + k)
			h *= 1099511628211
		}
		buf[i%len(buf)] = uint32(h)
		if i%len(buf) == len(buf)-1 {
			slices.Sort(buf[:])
		}
	}
	calSink += h + uint64(x)
	return time.Since(t)
}

// slowdown calibrates: the fastest of three kernel passes over calRefNS
// (1 at reference speed, 1.3 when the machine runs it 30% slower). The
// fastest pass ignores a collection or an interrupt that lands in one
// pass; a slower machine slows all three.
func slowdown() float64 {
	best := calPass()
	for i := 0; i < 2; i++ {
		best = min(best, calPass())
	}
	s := float64(best.Nanoseconds()) / calRefNS
	slowdowns = append(slowdowns, s)
	return s
}

// timed runs fn between two calibrations and returns its wall time at
// reference speed and the slowdown it ran at.
func timed(fn func() error) (secs, slow float64, err error) {
	before := slowdown()
	t := time.Now()
	err = fn()
	raw := time.Since(t).Seconds()
	slow = (before + slowdown()) / 2
	return raw / slow, slow, err
}
