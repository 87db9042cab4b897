package experiments

import (
	"fmt"
	"time"

	"github.com/evolvable-net/evolve/internal/anycast"
	"github.com/evolvable-net/evolve/internal/core"
	"github.com/evolvable-net/evolve/internal/livebridge"
	"github.com/evolvable-net/evolve/internal/topology"
)

// LiveOverlay is E11: the prototype demonstration — a vN-Bone of real
// UDP nodes on localhost carries IPvN packets end-to-end through anycast
// ingress, bone relays and an underlay exit, checking delivery through
// the full encap/decap data path. The overlay is provisioned through
// livebridge from a simulated line of domains, so its ingress and bone
// routes are the simulator's.
func LiveOverlay(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "live UDP overlay prototype",
		Claim: "the same mechanisms run over real sockets: anycast ingress, bone relay, underlay exit; packets survive the full wire path",
		Columns: []string{
			"leg", "detail", "result",
		},
	}
	// Stub A, transits T1..T4 each the provider of the one before it, and
	// stub B below T4; the transits deploy IPv8, the stubs do not, so both
	// hosts are self-addressed.
	const boneLen = 4
	net, err := topology.LineOfDomains(boneLen)
	if err != nil {
		return nil, err
	}
	var chain []topology.RouterID
	for i := 1; i <= boneLen; i++ {
		chain = append(chain, net.DomainByName(fmt.Sprintf("T%d", i)).Routers...)
	}
	hA, hB := net.Hosts[0], net.Hosts[1]
	evo, err := core.New(net, core.Config{Option: anycast.Option1})
	if err != nil {
		return nil, err
	}
	evo.DeployRouters(chain)
	o, err := livebridge.Provision(evo)
	if err != nil {
		return nil, err
	}
	defer o.Close()
	anycastAddr := evo.AnycastAddr()
	hostA, hostB := o.Hosts[hA.ID], o.Hosts[hB.ID]

	// One-way delivery.
	payload := []byte("hello over the vN-Bone")
	got, err := o.Send(hA, hB, payload, 5*time.Second)
	delivered := err == nil && string(got.Payload) == string(payload)
	t.AddRow("A → anycast ingress → bone ×"+fmt.Sprint(boneLen)+" → exit → B",
		fmt.Sprintf("%d bytes", len(payload)),
		fmt.Sprintf("delivered=%v", delivered))

	// Burst of packets for a delivery-rate row; drain concurrently so the
	// receiver's inbox never overflows.
	const burst = 100
	done := make(chan int, 1)
	go func() {
		n := 0
		for n < burst {
			if _, err := hostB.WaitInbox(2 * time.Second); err != nil {
				break
			}
			n++
		}
		done <- n
	}()
	for i := 0; i < burst; i++ {
		if err := hostA.SendVN(anycastAddr, hostB.VNAddr(), []byte(fmt.Sprintf("pkt %d", i))); err != nil {
			return nil, err
		}
	}
	gotN := <-done
	t.AddRow("burst", fmt.Sprintf("%d packets", burst), fmt.Sprintf("%d delivered", gotN))

	// Forwarding counters confirm every router touched the packets.
	for i, r := range chain {
		s := o.Members[r].Stats()
		t.AddRow(fmt.Sprintf("router %d counters", i+1),
			fmt.Sprintf("fwd=%d exit=%d drop=%d", s.Forwarded, s.Exited, s.Dropped),
			"ok")
	}

	if delivered && gotN >= burst/2 {
		t.pass("end-to-end live delivery through %d real UDP relays; %d/%d burst packets arrived", boneLen, gotN, burst)
	} else {
		t.fail("delivered=%v burst=%d/%d", delivered, gotN, burst)
	}
	return t, nil
}
