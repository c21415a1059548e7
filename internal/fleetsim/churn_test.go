package fleetsim

import (
	"testing"

	"openvcu/internal/cluster"
)

func TestCapacityUnderChurnRecovery(t *testing.T) {
	cfg := DefaultChurnConfig()
	series := CapacityUnderChurn(cfg)
	if len(series) == 0 {
		t.Fatal("empty series")
	}
	minHealthy := churnHosts
	for _, s := range series {
		if s.HealthyHosts < minHealthy {
			minHealthy = s.HealthyHosts
		}
	}
	// The chaos schedule crashes hosts, so capacity must dip...
	if minHealthy == churnHosts {
		t.Fatal("churn never cost any capacity — schedule too weak to test recovery")
	}
	// ...but the repair cap bounds the loss at any instant...
	maxOut := cluster.DefaultConfig(churnHosts).MaxHostsInRepair
	if lost := churnHosts - minHealthy; lost > maxOut+1 {
		// +1: a crashed host waiting for a repair slot is dark but not
		// yet counted in the repair queue.
		t.Fatalf("capacity loss %d hosts exceeds repair-cap bound %d", lost, maxOut+1)
	}
	// ...and the final epoch is back to steady state.
	last := series[len(series)-1]
	if last.HealthyHosts < churnHosts-1 {
		t.Fatalf("capacity did not recover: %d/%d healthy at hour %.1f",
			last.HealthyHosts, churnHosts, last.Hour)
	}
	if last.Completed != churnVideos {
		t.Fatalf("only %d/%d videos completed under churn", last.Completed, churnVideos)
	}
}

func TestCapacityUnderChurnDeterministic(t *testing.T) {
	a := CapacityUnderChurn(DefaultChurnConfig())
	b := CapacityUnderChurn(DefaultChurnConfig())
	if len(a) != len(b) {
		t.Fatalf("series lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}
