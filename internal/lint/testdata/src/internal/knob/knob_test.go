package knob

import "testing"

func TestSeed(t *testing.T) {
	cfg := Default(1)
	cfg.Seed = 7
	fill(&cfg)
}
