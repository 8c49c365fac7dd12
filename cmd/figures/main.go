// Command figures regenerates the tables and figures of the SNAP-1
// paper's evaluation section as text, using the deterministic measurement
// engine.
//
// Usage:
//
//	figures            # everything
//	figures -fig 15    # one figure
//	figures -fig table4
package main

import (
	"flag"
	"fmt"
	"os"

	"snap1/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", `which figure to regenerate: table4, 6, 8, 15, 16, 17, 18, 19, 20, 21, partition, decision, mus, speech, scale, or "all"`)
	million := flag.Bool("million", false, "include the million-concept point in -fig scale")
	flag.Parse()

	type job struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	jobs := []job{
		{"table4", func() (fmt.Stringer, error) { return experiments.TableIV() }},
		{"6", func() (fmt.Stringer, error) { return experiments.Fig6() }},
		{"8", func() (fmt.Stringer, error) { return experiments.Fig8() }},
		{"15", func() (fmt.Stringer, error) { return experiments.Fig15(nil) }},
		{"16", func() (fmt.Stringer, error) { return experiments.Fig16() }},
		{"17", func() (fmt.Stringer, error) { return experiments.Fig17() }},
		{"18", func() (fmt.Stringer, error) { return experiments.Fig18(nil) }},
		{"19", func() (fmt.Stringer, error) { return experiments.Fig19(nil) }},
		{"20", func() (fmt.Stringer, error) { return experiments.Fig20(nil, 3) }},
		{"21", func() (fmt.Stringer, error) { return experiments.Fig21(nil) }},
		{"partition", func() (fmt.Stringer, error) { return experiments.AblationPartition() }},
		{"decision", func() (fmt.Stringer, error) { return experiments.PartitionDecision() }},
		{"mus", func() (fmt.Stringer, error) { return experiments.AblationMUs() }},
		{"speech", func() (fmt.Stringer, error) { return experiments.SpeechStudy() }},
		{"scale", func() (fmt.Stringer, error) {
			points := experiments.DefaultScalePoints
			if *million {
				points = append(points, experiments.MillionPoint)
			}
			return experiments.Scale(points)
		}},
	}

	ran := false
	for _, j := range jobs {
		if *fig != "all" && *fig != j.name {
			continue
		}
		ran = true
		res, err := j.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", j.name, err)
			os.Exit(1)
		}
		fmt.Println(res.String())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "figures: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}
