// Command siptlint runs the repository's custom static-analysis suite
// (internal/lint): the analyzers that mechanically enforce the
// simulator's determinism, accounting, concurrency, and failure-model
// invariants.
//
// Usage:
//
//	siptlint [-analyzers ctxflow,lockorder,...] [-list] [-json]
//	         [-timing] [packages]
//
// Packages default to ./... relative to the module root. Packages are
// parsed and analysed in parallel; every run analyses from source (no
// result cache), which takes a few seconds for the whole module.
//
// The exit code is 1 when any finding survives (findings can be
// acknowledged in place with //siptlint:allow <analyzer>:
// <justification>), 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"sipt/internal/lint"
)

func main() {
	analyzers := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	timing := flag.Bool("timing", false, "report per-analyzer wall time on stderr")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}

	azs, err := lint.ByName(*analyzers)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}

	prog, err := lint.Load(wd, patterns...)
	if err != nil {
		fatal(err)
	}
	diags, timings, err := lint.RunTimed(prog, azs)
	if err != nil {
		fatal(err)
	}
	if *timing {
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "siptlint: %-14s %8.1fms\n", tm.Name, float64(tm.Elapsed.Microseconds())/1000)
		}
	}
	emit(diags, *jsonOut)
}

// jsonFinding is the stable machine-readable finding shape consumed by
// CI artifact tooling.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// emit prints findings (text or JSON) and exits 1 when any survive.
func emit(diags []lint.Diagnostic, asJSON bool) {
	if asJSON {
		out := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonFinding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "siptlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "siptlint:", err)
	os.Exit(2)
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
