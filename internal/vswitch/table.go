// Package vswitch simulates the software switch of the paper's §5: a
// userspace datapath with the same structure as Open vSwitch's DPDK
// datapath — parse, exact-match cache, masked (megaflow-style) flow table,
// actions — and the two HHH integration points the paper evaluates:
//
//   - dataplane mode: a measurement hook invoked per packet inside the
//     pipeline (Figure 6/7);
//   - distributed mode: the switch only samples (the d < H draw) and
//     forwards sampled prefixes to a separate collector over a transport
//     (in-process or UDP), which maintains the HH instances (Figure 8).
//
// It is a simulation substrate, not a switch you should route production
// traffic through; the README section "What stands in for the paper's
// testbed" lists what it keeps of the original experiment and what not.
package vswitch

import (
	"fmt"
	"sort"

	"rhhh/internal/hierarchy"
	"rhhh/internal/trace"
)

// Action is what the datapath does with a packet.
type Action struct {
	// Drop discards the packet; otherwise it is forwarded to OutPort.
	Drop    bool
	OutPort int
}

// Match is a masked flow pattern, OpenFlow style: IP prefixes plus optional
// exact protocol and destination port matches.
type Match struct {
	SrcPrefix hierarchy.Addr
	SrcBits   int
	DstPrefix hierarchy.Addr
	DstBits   int
	Proto     uint8
	// MatchProto and MatchDstPort enable the respective exact fields.
	MatchProto   bool
	DstPort      uint16
	MatchDstPort bool
}

// Covers reports whether the pattern matches the packet.
func (m Match) Covers(p trace.Packet) bool {
	if m.SrcBits > 0 && p.SrcIP.Mask(m.SrcBits) != m.SrcPrefix.Mask(m.SrcBits) {
		return false
	}
	if m.DstBits > 0 && p.DstIP.Mask(m.DstBits) != m.DstPrefix.Mask(m.DstBits) {
		return false
	}
	if m.MatchProto && p.Proto != m.Proto {
		return false
	}
	if m.MatchDstPort && p.DstPort != m.DstPort {
		return false
	}
	return true
}

// Rule is a prioritized match-action entry.
type Rule struct {
	Priority int
	Match    Match
	Action   Action
}

// FlowTable is the slow-path classifier: a priority-ordered list of masked
// rules (the role OVS's megaflow classifier plays). Lookup is linear in the
// number of rules, which is why the datapath puts the EMC in front of it.
type FlowTable struct {
	rules []Rule
}

// Add inserts a rule, keeping priority order (highest first, stable).
func (t *FlowTable) Add(r Rule) {
	i := sort.Search(len(t.rules), func(i int) bool {
		return t.rules[i].Priority < r.Priority
	})
	t.rules = append(t.rules, Rule{})
	copy(t.rules[i+1:], t.rules[i:])
	t.rules[i] = r
}

// Len returns the number of installed rules.
func (t *FlowTable) Len() int { return len(t.rules) }

// Lookup returns the highest-priority matching rule's action.
func (t *FlowTable) Lookup(p trace.Packet) (Action, bool) {
	for _, r := range t.rules {
		if r.Match.Covers(p) {
			return r.Action, true
		}
	}
	return Action{}, false
}

// String summarizes the table for diagnostics.
func (t *FlowTable) String() string {
	return fmt.Sprintf("FlowTable(%d rules)", len(t.rules))
}
