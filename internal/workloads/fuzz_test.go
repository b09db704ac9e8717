package workloads

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadProfiles: an accepted profile file is one JSON value and
// nothing after it, holds only profiles the simulator's validator
// accepts, and survives WriteProfiles → ReadProfiles field for field, SLO
// section included.
func FuzzReadProfiles(f *testing.F) {
	phase := `{"name":"p","instructions":1e9,"ips_peak":1e10,"serial_frac":0.1,"mpi_max":0.01,"mpi_min":0.001,"ways_half":2,"mem_stall_cost":100}`
	var suite bytes.Buffer
	if err := WriteProfiles(&suite, append(ECP()[:1], LC()[:1]...)); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		suite.String(),
		suite.String() + "THIS IS NOT JSON {{{\n",
		`[{"name":"x","phases":[` + phase + `]}]`,
		`[{"name":"x","phases":[` + phase + `]}]]`,
		`[{"name":"x","suite":"mine","slo":{"target_p99":0.02,"service_instructions":2e6,"arrival_rate":500},"phases":[` + phase + `,` + phase + `]}]`,
		`[{"name":"x","slo":{},"phases":[` + phase + `]}]`,
		`[{"name":"x","phases":[]}]`, `[]`, `null`, `{{{`, ``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		profiles, err := ReadProfiles(strings.NewReader(text))
		if err != nil {
			return
		}
		if len(profiles) == 0 || !json.Valid([]byte(text)) {
			t.Fatalf("ReadProfiles(%q) accepted an empty list or more than one JSON value", text)
		}
		for _, p := range profiles {
			if err := p.Validate(); err != nil {
				t.Fatalf("ReadProfiles(%q) accepted a profile its validator rejects: %v", text, err)
			}
		}
		var buf bytes.Buffer
		if err := WriteProfiles(&buf, profiles); err != nil {
			t.Fatal(err)
		}
		back, err := ReadProfiles(&buf)
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", text, err)
		}
		if !reflect.DeepEqual(profiles, back) {
			t.Fatalf("round trip of %q changed the profiles", text)
		}
	})
}

// FuzzSelect: the -workloads / -suite / -mix resolver returns an error or
// at least one profile, none of them nil.
func FuzzSelect(f *testing.F) {
	for _, seed := range []struct {
		list, suite string
		mix         int
	}{
		{"canneal,swaptions,streamcluster", "", 0}, {" canneal , memcached-lc ", "parsec", 99},
		{"", "parsec", 0}, {"", "parsec", 20}, {"", "parsec", 21}, {"", "ecp", -1}, {"", "cloudsuite", 3},
		{"", "lc", 0}, {"", "spec", 0}, {"", "", 0}, {",", "", 0}, {"canneal,", "", 0}, {"dedup", "", 0},
	} {
		f.Add(seed.list, seed.suite, seed.mix)
	}
	f.Fuzz(func(t *testing.T, list, suite string, mix int) {
		profiles, err := Select(list, suite, mix)
		if err != nil {
			return
		}
		if len(profiles) == 0 {
			t.Fatalf("Select(%q, %q, %d) returned no profile and no error", list, suite, mix)
		}
		for i, p := range profiles {
			if p == nil {
				t.Fatalf("Select(%q, %q, %d): profile %d is nil", list, suite, mix, i)
			}
		}
	})
}
