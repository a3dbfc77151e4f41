// Command dstgrid runs the deterministic simulation-testing harness:
// randomized co-allocation scenarios generated from seeds, executed on
// the virtual-time kernel, audited against the protocol invariant
// library, and shrunk to minimal replayable reproductions on violation.
//
// Usage:
//
//	dstgrid -seeds 200 -smoke          # sweep seeds 1..200, small profile
//	dstgrid -fed-seeds 50 -smoke       # sweep federated broker scenarios
//	dstgrid -seed 42                   # one seed, full profile
//	dstgrid -scenario '<json>'         # replay an exact scenario
//	dstgrid -corpus internal/dst/testdata  # re-run the regression corpus
//
// The process exits non-zero if any run violates an invariant. Output is
// deterministic: the same seeds produce byte-identical reports. (That they
// are also the reports of the reference heap timer engine is what the
// kernel-equivalence suite in internal/vtime locks down byte for byte; a
// scenario file dropped into internal/dst/testdata joins it.)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cogrid/internal/dst"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 0, "sweep seeds 1..N")
		fedSeeds = flag.Int("fed-seeds", 0, "sweep seeds 1..N forcing federated broker scenarios")
		seed     = flag.Int64("seed", 0, "run a single seed")
		scenario = flag.String("scenario", "", "replay an exact scenario (JSON, or @file)")
		corpus   = flag.String("corpus", "", "re-run every .json scenario in a directory")
		smoke    = flag.Bool("smoke", false, "use the small smoke profile")
		jsonOut  = flag.Bool("json", false, "emit one JSON line per run")
		shrink   = flag.Bool("shrink", true, "shrink violating scenarios to minimal reproductions")
	)
	flag.Parse()

	profile := dst.DefaultProfile
	if *smoke {
		profile = dst.SmokeProfile
	}
	budget := 0
	if *shrink {
		budget = dst.DefaultShrinkBudget
	}

	violated := false
	var reports []dst.SeedReport
	emit := func(r dst.SeedReport) {
		reports = append(reports, r)
		if *jsonOut {
			fmt.Println(r.JSON())
		} else {
			fmt.Print(r.Text())
		}
		if !r.Result.OK() {
			violated = true
		}
	}

	ran := false
	if *scenario != "" {
		ran = true
		runScenario(*scenario, budget, *jsonOut, &violated)
	}
	if *corpus != "" {
		ran = true
		files, err := filepath.Glob(filepath.Join(*corpus, "*.json"))
		if err != nil || len(files) == 0 {
			fatalf("dstgrid: no scenarios under %s", *corpus)
		}
		sort.Strings(files)
		for _, f := range files {
			runScenario("@"+f, budget, *jsonOut, &violated)
		}
	}
	if *seed != 0 {
		ran = true
		emit(dst.RunSeed(*seed, profile, dst.RunOptions{}, budget))
	}
	if *seeds > 0 {
		ran = true
		for s := int64(1); s <= int64(*seeds); s++ {
			emit(dst.RunSeed(s, profile, dst.RunOptions{}, budget))
		}
	}
	if *fedSeeds > 0 {
		ran = true
		fp := profile
		fp.BrokerProb, fp.FedProb = 1, 1
		for s := int64(1); s <= int64(*fedSeeds); s++ {
			emit(dst.RunSeed(s, fp, dst.RunOptions{}, budget))
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if len(reports) > 0 && !*jsonOut {
		fmt.Println(dst.Summarize(reports))
	}
	if violated {
		os.Exit(1)
	}
}

// runScenario replays one explicit scenario (inline JSON or @file).
func runScenario(src string, budget int, jsonOut bool, violated *bool) {
	data := []byte(src)
	name := "scenario"
	if strings.HasPrefix(src, "@") {
		b, err := os.ReadFile(src[1:])
		if err != nil {
			fatalf("dstgrid: %v", err)
		}
		data, name = b, filepath.Base(src[1:])
	}
	sc, err := dst.ParseScenario(data)
	if err != nil {
		fatalf("dstgrid: %v", err)
	}
	res, err := dst.Run(sc, dst.RunOptions{})
	if err != nil {
		fatalf("dstgrid: %v", err)
	}
	rep := dst.SeedReport{Seed: sc.Seed, Result: res}
	if len(res.Violations) > 0 && budget != 0 {
		sr := dst.Shrink(sc, dst.RunOptions{}, budget)
		rep.Shrunk = &sr
	}
	if jsonOut {
		fmt.Println(rep.JSON())
	} else {
		fmt.Printf("%s: ", name)
		fmt.Print(rep.Text())
	}
	if !res.OK() {
		*violated = true
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintln(os.Stderr, fmt.Sprintf(format, args...))
	os.Exit(1)
}
