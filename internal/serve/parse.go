package serve

import (
	"fmt"
	"strings"

	"sipt/internal/core"
	"sipt/internal/cpu"
	"sipt/internal/sim"
	"sipt/internal/vm"
)

// runConfig translates a RunRequest's string knobs into a validated
// sim.Config plus scenario, reusing the same parsers as cmd/siptsim so
// the API and the CLI accept identical vocabulary. label is a short
// human description for the result table.
func runConfig(req RunRequest) (cfg sim.Config, sc vm.Scenario, label string, err error) {
	l1 := req.L1
	if l1 == "" {
		l1 = "32K2w"
	}
	sizeKiB, ways, err := sim.ParseGeometry(l1)
	if err != nil {
		return cfg, sc, "", err
	}
	modeStr := req.Mode
	if modeStr == "" {
		modeStr = "combined"
	}
	m, err := core.ParseMode(modeStr)
	if err != nil {
		return cfg, sc, "", err
	}
	scStr := req.Scenario
	if scStr == "" {
		scStr = "normal"
	}
	sc, err = vm.ParseScenario(scStr)
	if err != nil {
		return cfg, sc, "", err
	}
	var coreCfg cpu.Config
	switch strings.ToLower(req.Core) {
	case "", "ooo":
		coreCfg = cpu.OOO()
	case "inorder":
		coreCfg = cpu.InOrder()
	default:
		return cfg, sc, "", fmt.Errorf("bad core %q (ooo|inorder)", req.Core)
	}
	cfg = sim.SIPT(coreCfg, sizeKiB, ways, m)
	cfg.WayPrediction = req.WayPred
	cfg.NoContig = sc == vm.ScenarioNoContig
	if err := cfg.Validate(); err != nil {
		return cfg, sc, "", err
	}
	label = fmt.Sprintf("%s %s", cfg.Label(), coreCfg.Name)
	return cfg, sc, label, nil
}
