package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// MetricReg keeps the metrics namespace deterministic. The text
// exposition format is sorted by name and diffed byte-for-byte by the
// fabric equality gate, so a dynamically formatted metric name (worker
// index, hostname, timestamp) breaks single-node-vs-fleet equality the
// moment topologies differ — exactly the PR-6 class of bug where a
// per-instance suffix made merged reports unmergeable. Duplicate
// registration panics at runtime today (metrics.Registry.register);
// this makes the same contract visible at lint time, before a
// constructor path that only runs in production trips it.
var MetricReg = &Analyzer{
	Name: "metricreg",
	Doc: `metric names are literal, lowercase, and registered exactly once

Every call to Registry.Counter/Gauge/GaugeFunc/Histogram in
sipt/internal/ must pass a compile-time-constant string name matching
^[a-z][a-z0-9_]*$, and no two call sites may register the same name. Constant names keep
the exposition format identical across runs and fleet topologies;
single registration keeps the runtime panic in
metrics.(*Registry).register unreachable.`,
	Run: runMetricReg,
}

var metricNameRx = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// metricRegistrars are the Registry methods that mint a new metric.
var metricRegistrars = map[string]bool{
	"Counter": true, "Gauge": true, "GaugeFunc": true, "Histogram": true,
}

func runMetricReg(pass *Pass) error {
	findings := pass.Prog.memo("metricreg", func() any {
		return buildMetricRegFindings(pass.Prog)
	}).([]progFinding)
	for _, f := range findings {
		if f.pkgPath == pass.Pkg.Path {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

type metricSite struct {
	pos     token.Pos
	pkgPath string
}

func buildMetricRegFindings(prog *Program) []progFinding {
	var findings []progFinding
	byName := make(map[string][]metricSite)
	for _, pkg := range prog.Pkgs {
		if !inSimScope(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isMetricRegistration(pkg, call) || len(call.Args) == 0 {
					return true
				}
				nameArg := call.Args[0]
				tv, ok := pkg.Info.Types[nameArg]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					findings = append(findings, progFinding{
						pos:     nameArg.Pos(),
						pkgPath: pkg.Path,
						msg: "metric name must be a compile-time-constant string " +
							"(dynamic names break the sorted exposition format and fleet report equality)",
					})
					return true
				}
				name := constant.StringVal(tv.Value)
				if !metricNameRx.MatchString(name) {
					findings = append(findings, progFinding{
						pos:     nameArg.Pos(),
						pkgPath: pkg.Path,
						msg: "metric name " + name +
							" must match ^[a-z][a-z0-9_]*$ for a stable exposition format",
					})
					return true
				}
				byName[name] = append(byName[name], metricSite{pos: nameArg.Pos(), pkgPath: pkg.Path})
				return true
			})
		}
	}

	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sites := byName[name]
		if len(sites) < 2 {
			continue
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
		first := prog.Fset.Position(sites[0].pos).String()
		for _, s := range sites[1:] {
			findings = append(findings, progFinding{
				pos:     s.pos,
				pkgPath: s.pkgPath,
				msg: "metric " + name + " already registered at " + first +
					"; registering it again panics in metrics.(*Registry).register",
			})
		}
	}
	return findings
}

// isMetricRegistration matches r.Counter/Gauge/GaugeFunc/Histogram
// where r is a *Registry. The receiver is matched by type name so
// analyzer fixtures (which cannot import module-internal packages) can
// declare their own Registry; in the real tree the only such type is
// metrics.Registry.
func isMetricRegistration(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !metricRegistrars[sel.Sel.Name] {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}
