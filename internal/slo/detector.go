package slo

// Detector turns noisy per-tick violation verdicts into a hysteretic
// violating/attaining state: an onset fires only after OnsetTicks
// consecutive violating verdicts, and clears only after ClearTicks
// consecutive attaining ones. The asymmetry (clear slower than onset)
// keeps the goal switch from flapping when attainment hovers at the
// target.
type Detector struct {
	onset int // consecutive violating verdicts to enter violation
	clear int // consecutive attaining verdicts to leave it

	violating  bool
	violStreak int // run of violating verdicts while attaining
	okStreak   int // run of attaining verdicts while violating

	onsets int
}

// Default hysteresis: half an equalization window to confirm an onset,
// a full one to trust a recovery.
const (
	DefaultOnsetTicks = 5
	DefaultClearTicks = 10
)

// NewDetector builds a detector; non-positive thresholds take the
// defaults.
func NewDetector(onsetTicks, clearTicks int) *Detector {
	if onsetTicks <= 0 {
		onsetTicks = DefaultOnsetTicks
	}
	if clearTicks <= 0 {
		clearTicks = DefaultClearTicks
	}
	return &Detector{onset: onsetTicks, clear: clearTicks}
}

// Observe feeds one tick's verdict and reports whether the hysteretic
// state flipped on this tick.
func (d *Detector) Observe(violating bool) (switched bool) {
	if violating {
		d.okStreak = 0
		if d.violating {
			return false
		}
		d.violStreak++
		if d.violStreak >= d.onset {
			d.violating = true
			d.violStreak = 0
			d.onsets++
			return true
		}
		return false
	}
	d.violStreak = 0
	if !d.violating {
		return false
	}
	d.okStreak++
	if d.okStreak >= d.clear {
		d.violating = false
		d.okStreak = 0
		return true
	}
	return false
}

// Violating is the current hysteretic state.
func (d *Detector) Violating() bool { return d.violating }

// MidStreak reports whether a run of contrary verdicts is advancing
// toward a state flip. While true, skipping ticks could jump over the
// onset/clear transition, so the event-driven fast path must refuse.
func (d *Detector) MidStreak() bool {
	return d.violStreak > 0 || d.okStreak > 0
}

// Onsets counts violation onsets observed so far.
func (d *Detector) Onsets() int { return d.onsets }
