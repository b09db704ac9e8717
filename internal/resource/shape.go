package resource

import "fmt"

// ConfigShapeError reports an Apply (or shape check) of a configuration
// whose dimensions do not match the live space — the typical symptom of
// a policy holding a configuration from before a job-membership change.
// It is typed so callers can distinguish "stale decision, rebuild the
// policy" from a genuinely malformed allocation. Every Platform backend
// (the simulator, the resctrl filesystem writer) rejects stale shapes
// with this same type; internal/sim and internal/rdt alias it.
type ConfigShapeError struct {
	// ConfigResources and SpaceResources are the resource-row counts of
	// the rejected configuration and the live space.
	ConfigResources, SpaceResources int
	// ConfigJobs and SpaceJobs are the job dimensions (ConfigJobs is the
	// first mismatching row's length).
	ConfigJobs, SpaceJobs int
}

// Error implements error.
func (e *ConfigShapeError) Error() string {
	return fmt.Sprintf("resource: config shape %dx%d does not match live space %dx%d (stale after job churn?)",
		e.ConfigResources, e.ConfigJobs, e.SpaceResources, e.SpaceJobs)
}

// CheckShape reports a *ConfigShapeError when c's dimensions do not match
// space (e.g. a configuration decided before churn changed the job set),
// and nil when the shape is current. It checks only dimensions, not
// allocation sums — Validate still performs full validation.
func CheckShape(space *Space, c Config) error {
	jobs := space.Jobs
	if len(c.Alloc) != len(space.Resources) {
		if len(c.Alloc) > 0 {
			jobs = len(c.Alloc[0])
		}
	} else {
		for _, row := range c.Alloc {
			if len(row) != space.Jobs {
				jobs = len(row)
				break
			}
		}
		if jobs == space.Jobs {
			return nil
		}
	}
	// Built only once the shape is stale: a current shape, every Apply's
	// case, allocates nothing.
	return &ConfigShapeError{
		ConfigResources: len(c.Alloc), SpaceResources: len(space.Resources),
		ConfigJobs: jobs, SpaceJobs: space.Jobs,
	}
}
