// Command tracegen generates synthetic CAIDA-stand-in traces, optionally
// with planted aggregates, and writes them as classic pcap files that the
// hhh tool (or any pcap consumer) can replay.
//
// Example:
//
//	tracegen -profile sanjose14 -n 1000000 -ddos 198.51.100.0/24:0.2 -o trace.pcap
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"slices"
	"strconv"
	"strings"

	"rhhh/internal/hierarchy"
	"rhhh/internal/trace"
)

func main() {
	var (
		profile = flag.String("profile", "chicago16", "workload profile: "+fmt.Sprint(trace.ProfileNames()))
		n       = flag.Uint64("n", 1_000_000, "packets to generate")
		out     = flag.String("o", "", "output pcap path (default stdout)")
		seed    = flag.Uint64("seed", 0, "override the profile seed")
		v6      = flag.Bool("ipv6", false, "generate IPv6 traffic")
		ddos    = flag.String("ddos", "", "plant a DDoS aggregate: victimPrefix:fraction (e.g. 198.51.100.0/24:0.2)")
	)
	flag.Parse()
	if !slices.Contains(trace.ProfileNames(), *profile) {
		fatalf("unknown profile %q (want one of %s)", *profile, strings.Join(trace.ProfileNames(), ", "))
	}

	cfg := trace.Profile(*profile)
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.V6 = *v6
	if *ddos != "" {
		agg, err := parseDDoS(*ddos)
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Aggregates = append(cfg.Aggregates, agg)
	}

	var w *os.File = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	pw, err := trace.NewPcapWriter(w, trace.LinkEthernet)
	if err != nil {
		fatalf("%v", err)
	}
	gen := trace.NewSynthetic(cfg)
	for i := uint64(0); i < *n; i++ {
		p, _ := gen.Next()
		if err := pw.WritePacket(p); err != nil {
			fatalf("writing packet %d: %v", i, err)
		}
	}
	if err := pw.Flush(); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d packets (profile %s, seed %#x)\n", *n, *profile, cfg.Seed)
}

// parseDDoS parses "prefix:fraction" into a planted aggregate with a large
// source spread (the many-attackers shape of a DDoS).
func parseDDoS(s string) (trace.Aggregate, error) {
	i := strings.LastIndex(s, ":")
	if i < 0 {
		return trace.Aggregate{}, fmt.Errorf("tracegen: -ddos wants prefix:fraction, got %q", s)
	}
	pfx, err := netip.ParsePrefix(s[:i])
	if err != nil {
		return trace.Aggregate{}, fmt.Errorf("tracegen: bad victim prefix: %w", err)
	}
	frac, err := strconv.ParseFloat(s[i+1:], 64)
	if err != nil || frac <= 0 || frac >= 1 {
		return trace.Aggregate{}, fmt.Errorf("tracegen: bad fraction %q", s[i+1:])
	}
	bits := pfx.Bits()
	var dst hierarchy.Addr
	if pfx.Addr().Is4() {
		b := pfx.Addr().As4()
		dst = hierarchy.AddrFromIPv4(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
	} else {
		dst = hierarchy.AddrFrom16(pfx.Addr().As16())
	}
	return trace.Aggregate{
		Fraction: frac,
		Dst:      dst,
		DstBits:  bits,
		Spread:   1 << 16,
	}, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(2)
}
