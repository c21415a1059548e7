package cluster

import (
	"testing"
	"time"

	"openvcu/internal/vcu"
)

// breakHost disables enough of a host's VCUs (with armed faults) that
// the next fault scan sends it to repair.
func breakHost(c *Cluster, h int) {
	for i, v := range c.Hosts[h].VCUs {
		if i*2 >= len(c.Hosts[h].VCUs) {
			break
		}
		v.InjectFault(vcu.FaultStop, 0)
		v.Disable()
	}
}

// repairRecycleScenario breaks three of four hosts under a repair cap
// of one, so they must cycle through repair one at a time, while the
// given number of uploads arrives spread across the hour.
func repairRecycleScenario(seed uint64, videos int) *Cluster {
	cfg := DefaultConfig(4)
	cfg.MaxHostsInRepair = 1
	cfg.RepairLatency = 2 * time.Minute
	cfg.Seed = seed
	c := newScenario(cfg)
	for h := 0; h < 3; h++ {
		breakHost(c, h)
	}
	for i := 0; i < videos; i++ {
		g := BuildGraph(uploadSpec(i), 10)
		c.Eng.Schedule(time.Hour/time.Duration(videos)*time.Duration(i), func() { c.Submit(g) })
	}
	c.Eng.RunUntil(time.Hour)
	return c
}

// TestRepairSlotsRecycle is the regression test for the repair-slot
// leak: hostsInRepair used to only ever increment, so MaxHostsInRepair
// permanently exhausted and later failures could never be repaired.
// With the readmit lifecycle, more hosts than the cap cycle through
// repair over time.
func TestRepairSlotsRecycle(t *testing.T) {
	c := repairRecycleScenario(1, 0)
	cfg := c.cfg
	if c.Stats.HostsSentToRepair < 3 {
		t.Fatalf("only %d hosts ever sent to repair; slot leaked (stats %+v)",
			c.Stats.HostsSentToRepair, c.Stats)
	}
	if c.Stats.HostsReadmitted < 3 {
		t.Fatalf("only %d hosts readmitted", c.Stats.HostsReadmitted)
	}
	if c.Stats.RepairsDeferred == 0 {
		t.Fatal("cap never deferred a repair despite 3 broken hosts and cap 1")
	}
	if got := c.HostsInRepair(); got != 0 {
		t.Fatalf("%d hosts still in repair after all readmissions", got)
	}
	if healthy := c.HealthyHosts(); healthy != cfg.Hosts {
		t.Fatalf("%d/%d hosts healthy after repair cycle", healthy, cfg.Hosts)
	}
}

// TestRepairNeverReturnsWhenLatencyZero preserves the pre-lifecycle
// contract: RepairLatency 0 means a host sent to repair stays out.
func TestRepairNeverReturnsWhenLatencyZero(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.RepairLatency = 0
	c := New(cfg)
	breakHost(c, 0)
	c.Eng.RunUntil(time.Hour)
	if c.Stats.HostsSentToRepair != 1 {
		t.Fatalf("hosts sent to repair %d, want 1", c.Stats.HostsSentToRepair)
	}
	if c.Stats.HostsReadmitted != 0 {
		t.Fatal("host readmitted despite RepairLatency 0")
	}
	if c.HostsInRepair() != 1 {
		t.Fatalf("hosts in repair %d, want 1", c.HostsInRepair())
	}
}

// TestReadmittedVCUsRePassGoldenScreening: a readmitted host's devices
// must re-run the golden tasks before taking work; a repaired fault
// clears, screening passes, and the devices serve again.
func TestReadmittedVCUsRePassGoldenScreening(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.RepairLatency = 2 * time.Minute
	c := New(cfg)
	breakHost(c, 0)
	goldenBefore := c.Stats.GoldenRejections
	c.Eng.RunUntil(30 * time.Minute)
	if c.Stats.HostsReadmitted != 1 {
		t.Fatalf("host not readmitted; stats %+v", c.Stats)
	}
	if c.Stats.ReadmitRejections != 0 {
		t.Fatalf("%d healthy repaired VCUs failed re-screening", c.Stats.ReadmitRejections)
	}
	if c.Stats.GoldenRejections != goldenBefore {
		t.Fatal("golden screening rejected repaired devices whose faults were cleared")
	}
	// The repaired capacity really serves: submit work and watch it run
	// on host 0's devices.
	g := BuildGraph(uploadSpec(1), 10)
	done := 0
	g.OnDone = func(*Graph) { done++ }
	c.Submit(g)
	c.Eng.RunUntil(40 * time.Minute)
	if done != 1 {
		t.Fatal("video did not complete on readmitted capacity")
	}
	ranOnHost0 := false
	for _, s := range g.Steps {
		for _, id := range s.RanOnVCU {
			if id < cfg.Params.VCUsPerHost() {
				ranOnHost0 = true
			}
		}
	}
	if !ranOnHost0 {
		t.Fatal("no step placed on the readmitted host (first-fit should prefer it)")
	}
}

// TestPersistentFaultQuarantinedAtReadmission: a manufacturing escape
// survives repair; golden re-screening at readmission must catch it and
// quarantine the device while its healthy siblings serve.
func TestPersistentFaultQuarantinedAtReadmission(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.RepairLatency = 2 * time.Minute
	c := New(cfg)
	// One device is a persistent escape; break enough siblings to send
	// the host to repair.
	escape := c.Hosts[0].VCUs[0]
	escape.InjectFaultSpec(vcu.FaultSpec{Mode: vcu.FaultCorrupt, Persistent: true})
	escape.Disable()
	for i := 1; i*2 < len(c.Hosts[0].VCUs); i++ {
		c.Hosts[0].VCUs[i].InjectFault(vcu.FaultStop, 0)
		c.Hosts[0].VCUs[i].Disable()
	}
	c.Eng.RunUntil(30 * time.Minute)
	if c.Stats.HostsReadmitted != 1 {
		t.Fatalf("host not readmitted; stats %+v", c.Stats)
	}
	if c.Stats.ReadmitRejections != 1 {
		t.Fatalf("readmit rejections %d, want exactly the persistent escape",
			c.Stats.ReadmitRejections)
	}
	// The escape is quarantined: no step may ever place on it.
	g := BuildGraph(uploadSpec(1), 10)
	done := 0
	g.OnDone = func(*Graph) { done++ }
	c.Submit(g)
	c.Eng.RunUntil(time.Hour)
	if done != 1 {
		t.Fatal("video did not complete on the healthy siblings")
	}
	for _, s := range g.Steps {
		for _, id := range s.RanOnVCU {
			if id == escape.ID {
				t.Fatal("step placed on quarantined persistent-fault device")
			}
		}
	}
}
