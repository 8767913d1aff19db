package main

import (
	"math"
	"time"
)

// The host is a shared two-vCPU VM whose effective speed moves in phases
// that last minutes: while the benchmark was calibrated, every workload
// ran 20-35% slower for about eight minutes — wall time and CPU time alike,
// with no steal time reported — and then recovered. Fresh-process passes
// and per-slot minima cannot see through a phase longer than the run, so
// every pass also times a fixed reference kernel next to its slots, and
// the parent scales the pass's times by how fast the kernel ran:
//
//	speed    = refNominalUs / median(kernel samples of the pass)
//	reported = measured × speed^speedExponent
//
// The kernel is compute-bound and L1-resident (two 32 KB arrays), so it
// neither evicts the workload's cache nor measures anything the program
// under test could change; it sees the same clock and neighbours the
// solver's loops see. The workloads are only partly compute-bound, so
// they slow less than the kernel does: over 160 calibration runs, two
// slow phases among them, the logarithm of every time moved with 0.5-1.1
// times the logarithm of the kernel's (0.6 for slot medians, 0.9 for
// tails and set-up; CALIBRATION.md). Scaling by the 0.75 power took the
// worst spread across ten seeds from 31% unscaled to 15% and the worst
// drift of a set's median from 36% to 8%; the full power overcorrects a
// slow run by 8%. Times are therefore milliseconds at the reference
// speed, host.speed in the traced run says how far the host was from it,
// and a later change is compared with its parent under the same scaling.

// speedExponent is how much of the kernel's slowdown the workloads share.
const speedExponent = 0.75

// refNominalUs is the kernel's median time on the calibration host in a
// quiet phase (986-995 us over five rounds of 200 samples).
const refNominalUs = 990

// refReps sizes one sample to about a millisecond.
const refReps = 32

var refX, refY = func() (x, y [4096]float64) {
	for i := range x {
		x[i] = 0.5 + float64(i%97)/33
		y[i] = 1 + float64(i%13)/7
	}
	return
}()

// refSink keeps the kernel's result live.
var refSink float64

// refSample times the reference kernel once.
func refSample() time.Duration {
	s := time.Now()
	acc := 0.0
	for r := 0; r < refReps; r++ {
		for i := range refX {
			acc += math.Log(refX[i]) * refY[i]
		}
	}
	refSink = acc
	return time.Since(s)
}

// hostSpeed is the host's speed relative to the reference during a pass,
// from the kernel samples it took: below 1 when the host was slow.
func hostSpeed(samplesUs []float64) float64 {
	if len(samplesUs) == 0 {
		return 1
	}
	return refNominalUs / median(samplesUs)
}

// timeScale is the factor that brings a time measured at the given host
// speed to the reference speed.
func timeScale(speed float64) float64 { return math.Pow(speed, speedExponent) }
