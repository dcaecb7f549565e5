// Package sim is a deterministic discrete-event simulator of the
// paper's experimental platform: a master–slave heterogeneous
// workstation cluster executing a parallel loop under a
// self-scheduling scheme.
//
// It stands in for the authors' testbed (3 fast + 5 slow Sun
// workstations on a mixed 10/100 Mbit LAN running mpich): machines
// have a virtual power, a private link to the master, and a
// time-varying run queue; the master is a single server that services
// one request at a time. The simulator reproduces the paper's
// measurement vocabulary exactly — per-PE communication, waiting and
// computation times, and the master-measured parallel time T_p.
//
// RunShards runs the same master at two levels — a root and one master
// per shard — for the hierarchical runtime (hier.Simulate).
package sim

import (
	"fmt"
	"math"
)

// Link models one slave's connection to the master.
type Link struct {
	// Latency is the one-way message latency in seconds.
	Latency float64
	// Bandwidth is the link capacity in bytes per second.
	Bandwidth float64
}

// Transfer returns the time to move `bytes` over the link.
func (l Link) Transfer(bytes float64) float64 {
	t := l.Latency
	if l.Bandwidth > 0 && bytes > 0 {
		t += bytes / l.Bandwidth
	}
	return t
}

// Common LAN speeds, in bytes per second.
const (
	Mbit10  = 10e6 / 8
	Mbit100 = 100e6 / 8
)

// LoadPhase is one interval of external load on a machine: Extra
// CPU-bound processes share the CPU during [Start, End).
type LoadPhase struct {
	Start, End float64
	Extra      int
}

// LoadScript is a machine's external-load timeline. Phases may
// overlap; the extras add up.
type LoadScript []LoadPhase

// ExtraAt returns the number of external processes running at time t.
func (ls LoadScript) ExtraAt(t float64) int {
	extra := 0
	for _, ph := range ls {
		if t >= ph.Start && t < ph.End && ph.Extra > 0 {
			extra += ph.Extra
		}
	}
	return extra
}

// NextChange returns the earliest phase boundary strictly after t
// (+Inf when the load is constant from t on).
func (ls LoadScript) NextChange(t float64) float64 {
	next := math.Inf(1)
	for _, ph := range ls {
		if ph.Start > t && ph.Start < next {
			next = ph.Start
		}
		if ph.End > t && ph.End < next {
			next = ph.End
		}
	}
	return next
}

// Machine is one slave PE.
type Machine struct {
	// Name labels the machine in reports (optional).
	Name string
	// Power is the virtual power V_i (1 = slowest machine class).
	Power float64
	// Link connects the machine to the master.
	Link Link
	// Load is the external load timeline (empty = dedicated).
	Load LoadScript
}

// RunQueue returns Q_i at time t: the loop process plus externals.
func (m Machine) RunQueue(t float64) int {
	return 1 + m.Load.ExtraAt(t)
}

// Rate returns the machine's work-unit throughput at time t, assuming
// every process gets an equal CPU share (the paper's §3.1 model).
func (m Machine) Rate(baseRate, t float64) float64 {
	return baseRate * m.Power / float64(m.RunQueue(t))
}

// ComputeTime integrates the machine's rate from t0 until `work`
// units are done and returns the elapsed time.
func (m Machine) ComputeTime(baseRate, t0, work float64) float64 {
	if work <= 0 {
		return 0
	}
	t := t0
	remaining := work
	for {
		rate := m.Rate(baseRate, t)
		if rate <= 0 {
			return math.Inf(1)
		}
		next := m.Load.NextChange(t)
		finish := t + remaining/rate
		if finish <= next {
			return finish - t0
		}
		remaining -= rate * (next - t)
		t = next
	}
}

// Cluster is the set of slave machines (the master is implicit).
type Cluster struct {
	Machines []Machine
	// MasterBandwidth is the master NIC capacity in bytes/s; it
	// serialises inbound result traffic. 0 means 100 Mbit.
	MasterBandwidth float64
}

func (c Cluster) masterBandwidth() float64 {
	if c.MasterBandwidth <= 0 {
		return Mbit100
	}
	return c.MasterBandwidth
}

// Validate checks the cluster description.
func (c Cluster) Validate() error {
	if len(c.Machines) == 0 {
		return fmt.Errorf("sim: empty cluster")
	}
	for i, m := range c.Machines {
		if m.Power <= 0 {
			return fmt.Errorf("sim: machine %d has power %g", i, m.Power)
		}
		for _, ph := range m.Load {
			if ph.End < ph.Start {
				return fmt.Errorf("sim: machine %d has inverted load phase %+v", i, ph)
			}
		}
	}
	return nil
}

// Powers returns the static virtual powers (for weighted schemes).
func (c Cluster) Powers() []float64 {
	out := make([]float64, len(c.Machines))
	for i, m := range c.Machines {
		out[i] = m.Power
	}
	return out
}

// TotalPower sums the virtual powers.
func (c Cluster) TotalPower() float64 {
	var t float64
	for _, m := range c.Machines {
		t += m.Power
	}
	return t
}

// Shares splits total iterations over the machines for a simulator whose
// master hands each worker one initial range (Tree Scheduling, affinity
// scheduling): in proportion to the virtual powers when weighted, the
// rounding drift settled on the last machine (or, should that go
// negative, on the first share large enough to absorb it); otherwise
// evenly, the first total mod p machines one iteration more.
func (c Cluster) Shares(total int, weighted bool) []int {
	p := len(c.Machines)
	shares := make([]int, p)
	if !weighted {
		for i := range shares {
			shares[i] = total / p
			if i < total%p {
				shares[i]++
			}
		}
		return shares
	}
	tp := c.TotalPower()
	given := 0
	for i, m := range c.Machines {
		shares[i] = int(float64(total)*m.Power/tp + 0.5)
		given += shares[i]
	}
	shares[p-1] += total - given
	if shares[p-1] < 0 {
		for i := range shares {
			if shares[i] >= -shares[p-1] {
				shares[i] += shares[p-1]
				shares[p-1] = 0
				break
			}
		}
	}
	return shares
}
