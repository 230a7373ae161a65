package transport

import (
	"testing"

	"fmi/internal/bufpool"
)

// BenchmarkMatcherIngress measures matcher ingress under fan-in: 8
// concurrent senders flood one receiver, which drains the per-source
// lanes round-robin. Before lane sharding every sender serialised on
// one ingress mutex; with lanes the senders only meet at the lane of
// the rank they target. One benchmark op is one message.
func BenchmarkMatcherIngress(b *testing.B) {
	const senders = 8
	nw := NewChanNetwork(Options{Pool: bufpool.New(), Endpoints: senders + 1})
	dst, err := nw.NewEndpoint(nil)
	if err != nil {
		b.Fatal(err)
	}
	srcs := make([]Endpoint, senders)
	for i := range srcs {
		if srcs[i], err = nw.NewEndpoint(nil); err != nil {
			b.Fatal(err)
		}
	}
	m := NewMatcher(dst)
	defer func() {
		m.Close()
		dst.Close()
		for _, s := range srcs {
			s.Close()
		}
	}()
	payload := make([]byte, 2048)

	rounds := b.N/senders + 1
	b.ResetTimer()
	for s := 0; s < senders; s++ {
		go func(s int) {
			for i := 0; i < rounds; i++ {
				if err := srcs[s].Send(dst.Addr(), Msg{Src: int32(s), Tag: 1, Data: payload}); err != nil {
					return
				}
			}
		}(s)
	}
	for i := 0; i < rounds*senders; i++ {
		msg, err := m.Recv(0, int32(i%senders), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		msg.Release()
	}
}

// BenchmarkRingFlood measures a sustained producer/consumer flood over
// the ring, short (the producer keeps parking on a full ring) and
// default-sized. One op is one 2 KiB message.
func BenchmarkRingFlood(b *testing.B) {
	b.Run("slots16", func(b *testing.B) {
		benchFlood(b, NewChanNetwork(Options{Pool: bufpool.New(), Endpoints: 2, RingSlots: 16}))
	})
	b.Run("slots256", func(b *testing.B) {
		benchFlood(b, NewChanNetwork(Options{Pool: bufpool.New(), Endpoints: 2}))
	})
}

// BenchmarkTCPFlood is the same flood over loopback TCP: the regime
// that sizes tcpBufSize.
func BenchmarkTCPFlood(b *testing.B) {
	benchFlood(b, NewTCPNetwork(Options{Pool: bufpool.New()}))
}

func benchFlood(b *testing.B, nw Network) {
	src, err := nw.NewEndpoint(nil)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := nw.NewEndpoint(nil)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMatcher(dst)
	defer func() { m.Close(); dst.Close(); src.Close() }()
	payload := make([]byte, 2048)

	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			if err := src.Send(dst.Addr(), Msg{Src: 0, Tag: 1, Data: payload}); err != nil {
				return
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		msg, err := m.Recv(0, 0, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		msg.Release()
	}
}
