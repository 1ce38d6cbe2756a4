// Command chaos drives deterministic in-process chaos episodes — a small
// DSE study under injected faults, over a result store damaged between
// phases — and checks the system-level invariants after each one: study
// output byte-identical to the serial reference (or the relaxed NaN
// contract), obs gauges drained, no goroutine leaks, monotonic counters,
// and bounded quarantine accounting.
//
//	chaos -scenario mixed -seed 1 -episodes 3   # seeds 1,2,3
//	chaos -scenario mixed -seed 42 -shrink      # minimize any failure
//	chaos -replay failed-seed42.json            # re-run a saved schedule
//	chaos -scenario cache -seed 7 -print        # print the schedule, don't run
//
// A failing episode writes its schedule to -out as
// failed-<scenario>-seed<seed>.json; with -shrink the greedy minimizer
// replays subsets until 1-minimal and writes the result alongside as
// ...min.json — the committed-reproduction format -replay accepts.
//
// Exit codes: 0 all episodes passed; 1 at least one invariant violation
// (artifacts written); 2 invalid usage or harness setup failure.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"neurometer/internal/chaos"
	"neurometer/internal/obs"
)

func main() {
	var (
		scenario = flag.String("scenario", "mixed", fmt.Sprintf("scenario to generate episodes from %v", chaos.ScenarioNames()))
		seed     = flag.Int64("seed", 1, "first schedule seed; episode i uses seed+i")
		episodes = flag.Int("episodes", 1, "number of episodes to run")
		replay   = flag.String("replay", "", "replay a saved schedule JSON instead of generating (ignores -scenario/-seed/-episodes)")
		shrink   = flag.Bool("shrink", false, "on failure, minimize the schedule to the smallest still-failing event set")
		budget   = flag.Int("shrink-budget", 128, "max episode replays the shrinker may spend per failure")
		out      = flag.String("out", ".", "directory for failing-schedule artifacts")
		print    = flag.Bool("print", false, "print the generated schedule JSON and exit without running")
		asJSON   = flag.Bool("json", false, "print each verdict as JSON instead of a summary line")
	)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stop, err := obsFlags.Setup()
	if err != nil {
		log.Fatal(err)
	}
	code := run(*scenario, *seed, *episodes, *replay, *shrink, *budget, *out, *print, *asJSON)
	stop()
	os.Exit(code)
}

func run(scenario string, seed int64, episodes int, replay string, shrink bool, budget int, out string, print, asJSON bool) int {
	ctx := context.Background()

	var schedules []*chaos.Schedule
	if replay != "" {
		s, err := chaos.ReadSchedule(replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			return 2
		}
		schedules = append(schedules, s)
	} else {
		for i := 0; i < episodes; i++ {
			s, err := chaos.Generate(scenario, seed+int64(i))
			if err != nil {
				fmt.Fprintln(os.Stderr, "chaos:", err)
				return 2
			}
			schedules = append(schedules, s)
		}
	}

	if print {
		for _, s := range schedules {
			b, err := s.MarshalIndent()
			if err != nil {
				fmt.Fprintln(os.Stderr, "chaos:", err)
				return 2
			}
			os.Stdout.Write(b)
		}
		return 0
	}

	r := chaos.NewRunner()
	failed := 0
	for _, s := range schedules {
		v, err := r.Run(ctx, s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos: harness error:", err)
			return 2
		}
		report(v, asJSON)
		if v.Passed {
			continue
		}
		failed++
		artifact := filepath.Join(out, fmt.Sprintf("failed-%s-seed%d.json", s.Scenario, s.Seed))
		if err := s.WriteFile(artifact); err != nil {
			fmt.Fprintln(os.Stderr, "chaos: writing artifact:", err)
			return 2
		}
		fmt.Printf("chaos: failing schedule written to %s\n", artifact)
		if shrink {
			min, err := chaos.Shrink(ctx, r, s, budget)
			if err != nil {
				fmt.Fprintln(os.Stderr, "chaos: shrink:", err)
				continue
			}
			minPath := filepath.Join(out, fmt.Sprintf("failed-%s-seed%d.min.json", s.Scenario, s.Seed))
			if err := min.WriteFile(minPath); err != nil {
				fmt.Fprintln(os.Stderr, "chaos: writing artifact:", err)
				return 2
			}
			fmt.Printf("chaos: shrunk %d -> %d events; minimal reproduction written to %s (replay with -replay)\n",
				len(s.Events), len(min.Events), minPath)
		}
	}
	if failed > 0 {
		fmt.Printf("chaos: %d/%d episodes FAILED\n", failed, len(schedules))
		return 1
	}
	fmt.Printf("chaos: %d/%d episodes passed\n", len(schedules), len(schedules))
	return 0
}

func report(v *chaos.Verdict, asJSON bool) {
	if asJSON {
		b, _ := json.Marshal(v)
		fmt.Println(string(b))
		return
	}
	status := "PASS"
	if !v.Passed {
		status = "FAIL"
	}
	contract := "exact"
	if !v.OutputExact {
		contract = "relaxed(nan)"
	}
	fmt.Printf("chaos: %s scenario=%s seed=%d events=%d output=%s\n",
		status, v.Scenario, v.Seed, v.Events, contract)
	for _, violation := range v.Violations {
		fmt.Printf("chaos:   violation: %s\n", violation)
	}
}
