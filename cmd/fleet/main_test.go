package main

import (
	"flag"
	"strings"
	"testing"
)

// TestBadFlagsRefused: fleet.Options reads a zero or negative arrival rate,
// mean service time, shard count or per-node cap as its default, so
// -arrival-rate -1 ran at 0.5 jobs/s, -duration-mean -5 at 30 s, and
// -shards -2, -max-jobs -2 and -workers -1 printed the default run's summary;
// a NaN rate admitted nothing and a NaN mean made every job leave at once.
// Each is refused by flag name.
func TestBadFlagsRefused(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-arrival-rate", "-1"}, {"-arrival-rate", "0"}, {"-arrival-rate", "NaN"},
		{"-arrival-rate", "+Inf"}, {"-arrival-rate", "-Inf"},
		{"-duration-mean", "-5"}, {"-duration-mean", "0"}, {"-duration-mean", "NaN"},
		{"-duration-mean", "+Inf"},
		{"-shards", "-2"}, {"-shards", "0"},
		{"-max-jobs", "-2"}, {"-max-jobs", "0"},
		{"-workers", "-1"},
	} {
		fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
		opt, _, _, err := options(fs, []string{c.flag, c.value})
		if err == nil {
			t.Errorf("%s %s: accepted as %+v", c.flag, c.value, opt)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%s %s: error does not name the flag: %v", c.flag, c.value, err)
		}
	}
}

// TestFlagsReachOptions: the smallest values that mean what they say pass
// through unchanged, and the defaults are the documented ones.
func TestFlagsReachOptions(t *testing.T) {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	opt, ticks, csv, err := options(fs, []string{"-nodes", "2", "-arrival-rate", "0.01", "-duration-mean", "0.5",
		"-shards", "1", "-max-jobs", "1", "-workers", "0", "-seconds", "0.7", "-suite", "ecp", "-csv", "out.csv"})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Nodes != 2 || opt.Stream.ArrivalRate != 0.01 || opt.Stream.DurationMean != 0.5 ||
		opt.Shards != 1 || opt.MaxJobsPerNode != 1 || opt.Workers != 0 || ticks != 7 || csv != "out.csv" {
		t.Errorf("options = %+v, %d ticks, csv %q", opt, ticks, csv)
	}
	if len(opt.Stream.Profiles) != 5 || opt.Stream.Profiles[0].Suite != "ecp" {
		t.Errorf("-suite ecp drew from %d profiles", len(opt.Stream.Profiles))
	}

	fs = flag.NewFlagSet("fleet", flag.ContinueOnError)
	opt, ticks, csv, err = options(fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Nodes != 4 || opt.Stream.ArrivalRate != 0.5 || opt.Stream.DurationMean != 30 || opt.Policy != "satori" ||
		opt.Placer != "round-robin" || opt.Seed != 1 || opt.Shards != 1 || opt.MaxJobsPerNode != 5 ||
		opt.Workers != 0 || opt.EventDriven || ticks != 600 || csv != "" || len(opt.Stream.Profiles) != 7 {
		t.Errorf("defaults = %+v, %d ticks, csv %q", opt, ticks, csv)
	}
}
