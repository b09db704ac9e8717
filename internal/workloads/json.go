package workloads

import (
	"encoding/json"
	"fmt"
	"io"

	"satori/internal/sim"
	"satori/internal/slo"
)

// jsonProfile is the on-disk schema for a workload profile. It mirrors
// sim.Profile/sim.Phase field-for-field with stable lowercase names so
// files survive internal refactors.
type jsonProfile struct {
	Name   string      `json:"name"`
	Suite  string      `json:"suite,omitempty"`
	Phases []jsonPhase `json:"phases"`
	SLO    *jsonSLO    `json:"slo,omitempty"`
}

// jsonSLO is the optional latency-critical section: present, the
// profile is an LC job with a p99 target (see slo.Spec for semantics).
type jsonSLO struct {
	TargetP99           float64 `json:"target_p99"`
	ServiceInstructions float64 `json:"service_instructions"`
	ArrivalRate         float64 `json:"arrival_rate"`
}

type jsonPhase struct {
	Name             string  `json:"name"`
	Instructions     float64 `json:"instructions"`
	IPSPeak          float64 `json:"ips_peak"`
	SerialFrac       float64 `json:"serial_frac"`
	MPIMax           float64 `json:"mpi_max"`
	MPIMin           float64 `json:"mpi_min"`
	WaysHalf         float64 `json:"ways_half"`
	MemStallCost     float64 `json:"mem_stall_cost"`
	PowerSensitivity float64 `json:"power_sensitivity,omitempty"`
}

// WriteProfiles serializes profiles as indented JSON.
func WriteProfiles(w io.Writer, profiles []*sim.Profile) error {
	out := make([]jsonProfile, len(profiles))
	for i, p := range profiles {
		jp := jsonProfile{Name: p.Name, Suite: p.Suite, Phases: make([]jsonPhase, len(p.Phases))}
		if p.SLO != nil {
			jp.SLO = &jsonSLO{
				TargetP99:           p.SLO.TargetP99,
				ServiceInstructions: p.SLO.ServiceInstructions,
				ArrivalRate:         p.SLO.ArrivalRate,
			}
		}
		for k, ph := range p.Phases {
			jp.Phases[k] = jsonPhase{
				Name: ph.Name, Instructions: ph.Instructions, IPSPeak: ph.IPSPeak,
				SerialFrac: ph.SerialFrac, MPIMax: ph.MPIMax, MPIMin: ph.MPIMin,
				WaysHalf: ph.WaysHalf, MemStallCost: ph.MemStallCost,
				PowerSensitivity: ph.PowerSensitivity,
			}
		}
		out[i] = jp
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadProfiles parses and validates a JSON profile list written by
// WriteProfiles (or by hand; see the schema in this file).
func ReadProfiles(r io.Reader) ([]*sim.Profile, error) {
	var in []jsonProfile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("workloads: parsing profiles: %w", err)
	}
	// Decode stops after one value; a file is the array and nothing else.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("workloads: parsing profiles: unexpected data after the profile array")
	}
	if len(in) == 0 {
		return nil, fmt.Errorf("workloads: profile file contains no profiles")
	}
	out := make([]*sim.Profile, len(in))
	for i, jp := range in {
		p := &sim.Profile{Name: jp.Name, Suite: jp.Suite, Phases: make([]sim.Phase, len(jp.Phases))}
		if p.Suite == "" {
			p.Suite = "custom"
		}
		if jp.SLO != nil {
			p.SLO = &slo.Spec{
				TargetP99:           jp.SLO.TargetP99,
				ServiceInstructions: jp.SLO.ServiceInstructions,
				ArrivalRate:         jp.SLO.ArrivalRate,
			}
		}
		for k, ph := range jp.Phases {
			p.Phases[k] = sim.Phase{
				Name: ph.Name, Instructions: ph.Instructions, IPSPeak: ph.IPSPeak,
				SerialFrac: ph.SerialFrac, MPIMax: ph.MPIMax, MPIMin: ph.MPIMin,
				WaysHalf: ph.WaysHalf, MemStallCost: ph.MemStallCost,
				PowerSensitivity: ph.PowerSensitivity,
			}
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("workloads: profile %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}
