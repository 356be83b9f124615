package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dmaapi"
	"repro/internal/netstack"
)

// System names, matching the paper's figure legends.
const (
	SysNoIOMMU        = "no iommu"
	SysCopy           = "copy"
	SysIdentityDefer  = "identity-"
	SysIdentityStrict = "identity+"
	SysLinuxStrict    = "strict"
	SysLinuxDefer     = "defer"
)

// Related-work systems beyond the paper's own evaluation (§7): Linux's
// SWIOTLB bounce buffering (copying without protection) and the Basu et
// al. self-invalidating IOMMU hardware proposal.
const (
	SysSWIOTLB   = "swiotlb"
	SysSelfInval = "selfinval"
)

// Window is how long a device can still write a buffer after dma_unmap
// returns.
type Window int

// The four windows the paper's designs leave open.
const (
	// NoWindow: unmap revokes the device's access before it returns.
	NoWindow Window = iota
	// UntilFlush: access lasts until the deferred IOTLB flush (250
	// unmaps or the 10 ms timer).
	UntilFlush
	// UntilTTL: access lasts until the IOTLB entry's self-invalidation
	// TTL expires; no software flush closes it sooner.
	UntilTTL
	// Unbounded: nothing ever revokes access.
	Unbounded
)

// Profile is the authority a malicious device keeps under a design, as
// the paper declares it (Table 1, §4, §7). The Table 1 attack tests, the
// campaign matrix and dmafuzz's security oracle all hold observed
// behaviour to it.
type Profile struct {
	// SubPage: the device can read kernel data co-located on the page of
	// a mapped buffer.
	SubPage bool
	Window  Window
	// Arbitrary: the device can reach memory the OS never mapped for it.
	Arbitrary bool
}

// Design is one protection design: its name, the profile the paper
// declares for it, and its constructor.
type Design struct {
	Name    string
	Profile Profile
	New     func(env *dmaapi.Env) (dmaapi.Mapper, error)
}

// Designs lists every protection design, in ExtendedSystems order.
var Designs = []Design{
	{SysNoIOMMU, Profile{SubPage: true, Window: Unbounded, Arbitrary: true},
		func(env *dmaapi.Env) (dmaapi.Mapper, error) { return dmaapi.NewNoIOMMU(env), nil }},
	{SysCopy, Profile{},
		func(env *dmaapi.Env) (dmaapi.Mapper, error) {
			return core.NewShadowMapper(env, core.WithHint(netstack.PacketLenHint))
		}},
	{SysIdentityDefer, Profile{SubPage: true, Window: UntilFlush},
		func(env *dmaapi.Env) (dmaapi.Mapper, error) { return dmaapi.NewIdentity(env, true), nil }},
	{SysIdentityStrict, Profile{SubPage: true},
		func(env *dmaapi.Env) (dmaapi.Mapper, error) { return dmaapi.NewIdentity(env, false), nil }},
	{SysLinuxDefer, Profile{SubPage: true, Window: UntilFlush},
		func(env *dmaapi.Env) (dmaapi.Mapper, error) { return dmaapi.NewLinux(env, true), nil }},
	{SysLinuxStrict, Profile{SubPage: true},
		func(env *dmaapi.Env) (dmaapi.Mapper, error) { return dmaapi.NewLinux(env, false), nil }},
	// Bounce buffers keep stale and sub-page probes inside the bounce
	// arena, but the device runs in passthrough: "no protection from DMA
	// attacks".
	{SysSWIOTLB, Profile{Arbitrary: true},
		func(env *dmaapi.Env) (dmaapi.Mapper, error) { return dmaapi.NewSWIOTLB(env), nil }},
	{SysSelfInval, Profile{SubPage: true, Window: UntilTTL},
		func(env *dmaapi.Env) (dmaapi.Mapper, error) { return dmaapi.NewSelfInval(env, 0), nil }},
}

// FigureSystems is the four-system comparison used by Figures 3–10.
var FigureSystems = []string{SysNoIOMMU, SysCopy, SysIdentityDefer, SysIdentityStrict}

// AllSystems adds the stock-Linux baselines (Figure 1 / Table 1).
var AllSystems = []string{SysNoIOMMU, SysCopy, SysIdentityDefer, SysIdentityStrict, SysLinuxDefer, SysLinuxStrict}

// ExtendedSystems is AllSystems plus the related-work designs: the name
// of every entry in Designs.
var ExtendedSystems = func() []string {
	names := make([]string, len(Designs))
	for i, d := range Designs {
		names[i] = d.Name
	}
	return names
}()

// LookupDesign returns the named entry of Designs.
func LookupDesign(name string) (Design, bool) {
	for _, d := range Designs {
		if d.Name == name {
			return d, true
		}
	}
	return Design{}, false
}

// IsSystem reports whether name is a known protection backend.
func IsSystem(name string) bool {
	_, ok := LookupDesign(name)
	return ok
}

// NewMapper instantiates a protection strategy by name.
func NewMapper(name string, env *dmaapi.Env) (dmaapi.Mapper, error) {
	d, ok := LookupDesign(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown system %q", name)
	}
	return d.New(env)
}
