package experiments

import (
	"fmt"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/topology"
)

// FailureResilience is E13: anycast redirection self-heals around link
// failures with zero endhost involvement — the robustness corollary of
// network-level redirection that application-level designs (E6) lack.
func FailureResilience(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E13",
		Title: "anycast self-healing under link failures",
		Claim: "after an inter-domain link failure, every client still reaches an IPvN router (over the detour); repair restores the original paths; the endhost never acts",
		Columns: []string{
			"phase", "success", "mean ingress cost", "ingress moved (hosts)",
		},
	}
	// Two participant providers P1, P2 above a shared transit T; client
	// stubs below T. Failing T's link to P1 forces re-capture into P2.
	b := topology.NewBuilder()
	dT := b.AddDomain("T")
	dP1 := b.AddDomain("P1")
	dP2 := b.AddDomain("P2")
	rT := b.AddRouters(dT, 2)
	rP1 := b.AddRouter(dP1, "")
	rP2 := b.AddRouter(dP2, "")
	b.IntraLink(rT[0], rT[1], 2)
	b.Provide(rP1, rT[0], 10) // P1 provides T (cheap side)
	b.Provide(rP2, rT[1], 20) // P2 provides T
	var clients []*topology.Host
	for i := 0; i < 4; i++ {
		dS := b.AddDomain(fmt.Sprintf("S%d", i))
		rS := b.AddRouter(dS, "")
		b.Provide(rT[i%2], rS, 10)
		clients = append(clients, b.AddHost(dS, rS, fmt.Sprintf("c%d", i), 1))
	}
	net, err := b.Build()
	if err != nil {
		return nil, err
	}
	evo, err := core.New(net, core.Config{Option: anycast.Option1})
	if err != nil {
		return nil, err
	}
	evo.DeployRouter(rP1)
	evo.DeployRouter(rP2)

	measure := func(phase string, baseline map[topology.HostID]topology.RouterID) (map[topology.HostID]topology.RouterID, error) {
		landing := map[topology.HostID]topology.RouterID{}
		okN, moved := 0, 0
		var costSum int64
		for _, h := range clients {
			res, err := evo.ResolveAnycast(h.Attach, evo.AnycastAddr())
			if err != nil {
				continue
			}
			okN++
			costSum += res.Cost + h.AccessLatency
			landing[h.ID] = res.Member
			if baseline != nil && baseline[h.ID] != res.Member {
				moved++
			}
		}
		mean := "-"
		if okN > 0 {
			mean = fmt.Sprintf("%.1f", float64(costSum)/float64(okN))
		}
		movedStr := "-"
		if baseline != nil {
			movedStr = fmt.Sprintf("%d/%d", moved, len(clients))
		}
		t.AddRow(phase, fmt.Sprintf("%d/%d", okN, len(clients)), mean, movedStr)
		if okN != len(clients) {
			return landing, fmt.Errorf("%s: only %d/%d clients redirected", phase, okN, len(clients))
		}
		return landing, nil
	}

	before, err := measure("healthy", nil)
	if err != nil {
		return nil, err
	}
	link, ok := evo.FailInterLink(rP1, rT[0])
	if !ok {
		return nil, fmt.Errorf("P1–T link not found")
	}
	during, err := measure("P1–T link failed", before)
	if err != nil {
		return nil, err
	}
	// Everyone must now land in P2.
	movedAll := true
	for _, m := range during {
		if net.DomainOf(m) != dP2.ASN {
			movedAll = false
		}
	}
	evo.RestoreInterLink(link)
	after, err := measure("repaired", before)
	if err != nil {
		return nil, err
	}
	restored := true
	for id, m := range after {
		if before[id] != m {
			restored = false
		}
	}

	if movedAll && restored {
		t.pass("all clients re-landed in P2 during the failure and returned to their original ingress after repair, with no endhost involvement")
	} else {
		t.fail("movedAll=%v restored=%v", movedAll, restored)
	}
	return t, nil
}
