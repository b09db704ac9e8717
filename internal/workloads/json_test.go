package workloads

import (
	"bytes"
	"strings"
	"testing"
)

func TestProfileJSONRoundTrip(t *testing.T) {
	orig := PARSEC()
	var buf bytes.Buffer
	if err := WriteProfiles(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfiles(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("round trip lost profiles: %d vs %d", len(got), len(orig))
	}
	for i := range orig {
		if got[i].Name != orig[i].Name || got[i].Suite != orig[i].Suite {
			t.Errorf("profile %d identity changed: %s/%s", i, got[i].Suite, got[i].Name)
		}
		if len(got[i].Phases) != len(orig[i].Phases) {
			t.Fatalf("profile %d phase count changed", i)
		}
		for k := range orig[i].Phases {
			if got[i].Phases[k] != orig[i].Phases[k] {
				t.Errorf("profile %d phase %d changed: %+v vs %+v",
					i, k, got[i].Phases[k], orig[i].Phases[k])
			}
		}
	}
}

func TestReadProfilesValidates(t *testing.T) {
	okPhase := `{"name":"p","instructions":1e9,"ips_peak":1e10,"serial_frac":0.1,` +
		`"mpi_max":0.01,"mpi_min":0.001,"ways_half":2,"mem_stall_cost":100}`
	cases := map[string]string{
		"empty list":        `[]`,
		"not json":          `{{{`,
		"unknown field":     `[{"name":"x","bogus":1,"phases":[]}]`,
		"invalid phase":     `[{"name":"x","phases":[{"name":"p","instructions":-1,"ips_peak":1,"serial_frac":0,"mpi_max":0,"mpi_min":0,"ways_half":1,"mem_stall_cost":0}]}]`,
		"no phases":         `[{"name":"x","phases":[]}]`,
		"unknown slo field": `[{"name":"x","slo":{"target_p99":0.01,"service_instructions":1e6,"arrival_rate":100,"bogus":1},"phases":[` + okPhase + `]}]`,
		"negative slo p99":  `[{"name":"x","slo":{"target_p99":-0.01,"service_instructions":1e6,"arrival_rate":100},"phases":[` + okPhase + `]}]`,
		"zero arrival rate": `[{"name":"x","slo":{"target_p99":0.01,"service_instructions":1e6,"arrival_rate":0},"phases":[` + okPhase + `]}]`,
		"empty slo section": `[{"name":"x","slo":{},"phases":[` + okPhase + `]}]`,
		// Decode reads one value and stops; the file must end with it.
		"trailing garbage": `[{"name":"x","phases":[` + okPhase + `]}]` + "\nTHIS IS NOT JSON {{{\n",
		"second array":     `[{"name":"x","phases":[` + okPhase + `]}] [{"name":"y","phases":[` + okPhase + `]}]`,
		"stray bracket":    `[{"name":"x","phases":[` + okPhase + `]}]]`,
	}
	for name, body := range cases {
		if _, err := ReadProfiles(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestReadProfilesHandWrittenSLO accepts a hand-authored LC profile and
// preserves its spec — the documented way to bring a custom LC workload.
func TestReadProfilesHandWrittenSLO(t *testing.T) {
	body := `[{"name":"mine","slo":{"target_p99":0.02,"service_instructions":2e6,"arrival_rate":500},
		"phases":[{"name":"p","instructions":1e9,"ips_peak":1e10,"serial_frac":0.1,
		"mpi_max":0.01,"mpi_min":0.001,"ways_half":2,"mem_stall_cost":100}]}]`
	ps, err := ReadProfiles(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	s := ps[0].SLO
	if s == nil || s.TargetP99 != 0.02 || s.ServiceInstructions != 2e6 || s.ArrivalRate != 500 {
		t.Fatalf("SLO section parsed as %+v", s)
	}
}

func TestReadProfilesDefaultsSuite(t *testing.T) {
	body := `[{"name":"mine","phases":[{"name":"p","instructions":1e9,"ips_peak":1e10,
		"serial_frac":0.1,"mpi_max":0.01,"mpi_min":0.001,"ways_half":2,"mem_stall_cost":100}]}]`
	ps, err := ReadProfiles(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if ps[0].Suite != "custom" {
		t.Errorf("default suite = %q", ps[0].Suite)
	}
}
