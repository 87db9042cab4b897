// Package econ models the paper's incentive story (§2.1): whether ISPs
// deploy IPvN is a question of revenue, and the technical property of
// universal access changes the economics qualitatively.
//
// The model is a deterministic discrete-time adoption game:
//
//   - Users generate demand for IPvN applications. Developers only invest
//     where there is addressable market, so demand grows logistically,
//     gated by *reach* — the fraction of users who can actually use IPvN.
//   - With universal access, reach jumps to 1 as soon as a single ISP
//     deploys (any client can reach the deployment); without it — the IP
//     Multicast cautionary tale — reach equals the deployers' combined
//     customer share, reproducing the chicken-and-egg stall.
//   - Revenue follows traffic (assumption A4): deployers serve their own
//     customers' demand and, under universal access, split the attracted
//     demand of non-deployers' customers. Customers also defect toward
//     deploying ISPs at a small rate (customer choice drives competition).
//   - Each round, every ISP deploys if projected per-round revenue beats
//     its amortized deployment cost, and abandons if sustained losses
//     exceed its patience.
//
// The headline result (experiment E9) is the pair of trajectories: with
// universal access a first mover profits, laggards feel defection pressure
// and adoption completes (S-curve); without it the first mover's market is
// too small, demand never takes off, and deployment collapses.
package econ

import (
	"fmt"

	"github.com/evolvable-net/evolve/internal/topology"
)

// Params are the model parameters. Zero values are replaced by defaults.
type Params struct {
	// UniversalAccess selects whether reach is global or deployer-only.
	UniversalAccess bool
	// Rounds is the simulation horizon. Default 120.
	Rounds int
	// Price is revenue per unit of served demand per round. Default 1.0.
	Price float64
	// DeployCost is each ISP's amortized per-round cost of running IPvN.
	// Default 0.08.
	DeployCost float64
	// GrowthRate is the logistic demand growth coefficient. Default 0.6.
	GrowthRate float64
	// SeedDemand is the initial app demand (early adopters). Default 0.02.
	SeedDemand float64
	// Defection is the per-round fraction of a non-deployer's customers
	// who move to deploying ISPs (customer choice). Default 0.03.
	Defection float64
	// Patience is how many consecutive loss-making rounds an ISP tolerates
	// before abandoning its deployment. Default 8.
	Patience int
	// RetentionHorizon is how many rounds of avoided customer defection a
	// non-deployer counts when valuing adoption — the §2.1 "late-adopting
	// ISPs will deploy if they are at a competitive disadvantage without
	// it". Default 12.
	RetentionHorizon int
	// SettlementRate is the fraction of retail price an ISP earns for
	// carrying *attracted* traffic (other ISPs' customers reaching its
	// IPvN routers) — A4's "increased settlement payments". Default 0.5.
	SettlementRate float64
	// FirstMover indexes the ISP that deploys at round 0. Default 0.
	FirstMover int
}

func (p Params) withDefaults() Params {
	if p.Rounds == 0 {
		p.Rounds = 120
	}
	if p.Price == 0 {
		p.Price = 1.0
	}
	if p.DeployCost == 0 {
		p.DeployCost = 0.08
	}
	if p.GrowthRate == 0 {
		p.GrowthRate = 0.6
	}
	if p.SeedDemand == 0 {
		p.SeedDemand = 0.02
	}
	if p.Defection == 0 {
		p.Defection = 0.03
	}
	if p.Patience == 0 {
		p.Patience = 8
	}
	if p.RetentionHorizon == 0 {
		p.RetentionHorizon = 12
	}
	if p.SettlementRate == 0 {
		p.SettlementRate = 0.5
	}
	return p
}

// ISP is one provider's state.
type ISP struct {
	Name string
	// Share is the fraction of all users who are this ISP's customers.
	Share float64
	// Deployed reports whether the ISP currently offers IPvN.
	Deployed bool
	// Profit is cumulative profit from the IPvN offering.
	Profit float64

	lossStreak int
	// initShare is the pre-defection customer base, the addressable
	// market an ISP can win back by deploying; adoption decisions use it
	// so that bleeding customers raises rather than erodes the incentive
	// to catch up.
	initShare float64
}

// Round is one row of the simulation's output.
type Round struct {
	T             int
	Demand        float64
	Reach         float64
	DeployedCount int
	DeployedShare float64
}

// Model is the adoption game.
type Model struct {
	Params Params
	ISPs   []*ISP
	// History records every simulated round.
	History []Round
}

// NewModel creates a model over ISPs with the given customer shares
// (normalized internally).
func NewModel(p Params, shares []float64) (*Model, error) {
	p = p.withDefaults()
	if len(shares) == 0 {
		return nil, fmt.Errorf("econ: no ISPs")
	}
	if p.FirstMover < 0 || p.FirstMover >= len(shares) {
		return nil, fmt.Errorf("econ: first mover %d out of range", p.FirstMover)
	}
	var sum float64
	for _, s := range shares {
		if s < 0 {
			return nil, fmt.Errorf("econ: negative share %v", s)
		}
		sum += s
	}
	if sum == 0 {
		return nil, fmt.Errorf("econ: all shares zero")
	}
	m := &Model{Params: p}
	for i, s := range shares {
		m.ISPs = append(m.ISPs, &ISP{
			Name:      fmt.Sprintf("ISP%d", i),
			Share:     s / sum,
			initShare: s / sum,
		})
	}
	return m, nil
}

// NewModelFromNetwork derives customer shares from a topology's host
// counts (domains without hosts get a minimal share so they still play).
func NewModelFromNetwork(p Params, net *topology.Network) (*Model, error) {
	asns := net.ASNs()
	shares := make([]float64, len(asns))
	for i, asn := range asns {
		shares[i] = float64(len(net.HostsIn(asn))) + 0.1
	}
	m, err := NewModel(p, shares)
	if err != nil {
		return nil, err
	}
	for i, asn := range asns {
		m.ISPs[i].Name = net.Domain(asn).Name
	}
	return m, nil
}

// reach is the fraction of users who can use IPvN right now.
func (m *Model) reach() float64 {
	var deployedShare float64
	any := false
	for _, isp := range m.ISPs {
		if isp.Deployed {
			any = true
			deployedShare += isp.Share
		}
	}
	if !any {
		return 0
	}
	if m.Params.UniversalAccess {
		return 1
	}
	return deployedShare
}

// servedDemand returns the demand units ISP i would serve at the given
// total demand level.
func (m *Model) servedDemand(i int, demand float64) float64 {
	isp := m.ISPs[i]
	if !isp.Deployed {
		return 0
	}
	// Own customers' demand is always served.
	served := isp.Share * demand
	if m.Params.UniversalAccess {
		// Attracted traffic (A4): non-deployers' customers reach the
		// deployment too; deployers split it in proportion to size.
		var nonDeployed, deployedShare float64
		for _, other := range m.ISPs {
			if other.Deployed {
				deployedShare += other.Share
			} else {
				nonDeployed += other.Share
			}
		}
		if deployedShare > 0 {
			served += nonDeployed * demand * (isp.Share / deployedShare)
		}
	}
	return served
}

// Run simulates the configured horizon and returns the history. Running
// twice restarts from scratch.
func (m *Model) Run() []Round {
	p := m.Params
	for _, isp := range m.ISPs {
		isp.Deployed = false
		isp.Profit = 0
		isp.lossStreak = 0
		isp.Share = isp.initShare
	}
	m.ISPs[p.FirstMover].Deployed = true
	demand := p.SeedDemand
	m.History = m.History[:0]

	for t := 0; t < p.Rounds; t++ {
		reach := m.reach()

		// Settle this round's books.
		for i, isp := range m.ISPs {
			if !isp.Deployed {
				continue
			}
			profit := p.Price*m.servedDemand(i, demand) - p.DeployCost
			isp.Profit += profit
			if profit < 0 {
				isp.lossStreak++
			} else {
				isp.lossStreak = 0
			}
		}

		// Abandonment: sustained losses end the experiment for that ISP.
		for _, isp := range m.ISPs {
			if isp.Deployed && isp.lossStreak > p.Patience {
				isp.Deployed = false
				isp.lossStreak = 0
			}
		}

		// Adoption: a non-deployer joins when projected value beats cost.
		// Value has two parts: serving its own customers' demand, and —
		// once competitors have deployed — the customer defection it
		// avoids over its planning horizon (competitive disadvantage).
		anyDeployed := len(m.deployerIdx()) > 0
		for _, isp := range m.ISPs {
			if isp.Deployed {
				continue
			}
			projected := p.Price * isp.initShare * demand
			if anyDeployed {
				projected += p.Price * isp.initShare * demand * p.Defection * float64(p.RetentionHorizon)
			}
			if projected > p.DeployCost {
				isp.Deployed = true
			}
		}

		// Customer defection toward deployers (competition for
		// customers, proportional to how visible the service is).
		if deployers := m.deployerIdx(); len(deployers) > 0 && len(deployers) < len(m.ISPs) {
			var moved float64
			for _, isp := range m.ISPs {
				if isp.Deployed {
					continue
				}
				delta := isp.Share * p.Defection * demand
				isp.Share -= delta
				moved += delta
			}
			var deployedShare float64
			for _, di := range deployers {
				deployedShare += m.ISPs[di].Share
			}
			for _, di := range deployers {
				m.ISPs[di].Share += moved * (m.ISPs[di].Share / deployedShare)
			}
		}

		// Demand evolves logistically, capped by reach.
		demand += p.GrowthRate * demand * (reach - demand)
		if demand < 0 {
			demand = 0
		}
		if demand > 1 {
			demand = 1
		}

		count, share := 0, 0.0
		for _, isp := range m.ISPs {
			if isp.Deployed {
				count++
				share += isp.Share
			}
		}
		m.History = append(m.History, Round{
			T: t, Demand: demand, Reach: reach,
			DeployedCount: count, DeployedShare: share,
		})
	}
	return m.History
}

func (m *Model) deployerIdx() []int {
	var out []int
	for i, isp := range m.ISPs {
		if isp.Deployed {
			out = append(out, i)
		}
	}
	return out
}

// Outcome summarises a finished run.
type Outcome struct {
	FinalDemand   float64
	FinalDeployed int
	DeployedShare float64
	// Completed reports whether adoption effectively finished (≥90% of
	// ISPs deployed and demand ≥ 0.5).
	Completed bool
	// Stalled reports whether the deployment collapsed or demand stayed
	// marginal (< 3× seed).
	Stalled bool
	// TimeToHalf is the first round where demand crossed 0.5, or -1.
	TimeToHalf int
}

// Outcome inspects the last run.
func (m *Model) Outcome() Outcome {
	if len(m.History) == 0 {
		return Outcome{Stalled: true, TimeToHalf: -1}
	}
	last := m.History[len(m.History)-1]
	o := Outcome{
		FinalDemand:   last.Demand,
		FinalDeployed: last.DeployedCount,
		DeployedShare: last.DeployedShare,
		TimeToHalf:    -1,
	}
	for _, r := range m.History {
		if r.Demand >= 0.5 {
			o.TimeToHalf = r.T
			break
		}
	}
	o.Completed = float64(last.DeployedCount) >= 0.9*float64(len(m.ISPs)) && last.Demand >= 0.5
	o.Stalled = last.DeployedCount == 0 || last.Demand < 3*m.Params.withDefaults().SeedDemand
	return o
}

// SettlementRevenue converts measured traffic geography into per-ISP
// revenue per round, the concrete reading of assumption A4: an ISP earns
// retail price on its own customers' IPvN demand and the settlement rate
// on traffic it *attracts* from other ISPs' customers (its anycast
// catchment beyond its own base).
//
// ownShare maps each ISP to its customer share of all users (summing to
// ~1); ingressShare maps each participant to the fraction of all users
// whose IPvN traffic lands in its network (e.g. core's IngressShare).
// demand scales both terms.
func SettlementRevenue(p Params, demand float64, ownShare, ingressShare map[topology.ASN]float64) map[topology.ASN]float64 {
	p = p.withDefaults()
	out := map[topology.ASN]float64{}
	for asn, ing := range ingressShare {
		own := ownShare[asn]
		if own > ing {
			// Some of its own customers land elsewhere; it only retails
			// what it actually serves.
			own = ing
		}
		attracted := ing - own
		out[asn] = p.Price * demand * (own + p.SettlementRate*attracted)
	}
	return out
}
