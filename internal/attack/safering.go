package attack

import (
	"bytes"
	"errors"
	"fmt"

	"confio/internal/chaos"
	"confio/internal/platform"
	"confio/internal/safering"
)

// rig builds the device under attack — one ring pair, or several behind
// one Life — on chaos's rigs, with an honest host model attached. The
// attacked queue is always queue 0; recovery is device-wide (per-queue
// revival is refused by design).
func rig(cfg safering.DeviceConfig, queues int) chaos.NIC {
	if queues == 1 {
		return chaos.NewDevice(cfg)
	}
	return chaos.NewMultiDevice(cfg, queues)
}

// saferingScenarios attacks the paper's safe ring, in both receive
// policies and in both data modes. Expected (and asserted by the tests):
// everything Blocked or bounded to network-equivalent noise — the
// structural-safety claim.
func saferingScenarios() []Scenario {
	var out []Scenario
	for _, variant := range []struct {
		name   string
		rx     safering.RXPolicy
		mode   safering.DataMode
		queues int
	}{
		{"safering", safering.CopyOut, safering.SharedArea, 1},
		{"safering-revoke", safering.Revoke, safering.SharedArea, 1},
		// The multi-queue column attacks one queue of a 4-queue device:
		// every single-queue attack class must stay blocked there, and
		// the cross-kill scenario checks the blast radius is device-wide.
		{"safering-mq", safering.CopyOut, safering.SharedArea, 4},
		// The inline column attacks the mode DefaultConfig deploys:
		// payloads travel in the ring slot, so there are no slabs.
		{"safering-inline", safering.CopyOut, safering.Inline, 1},
	} {
		v := variant
		inline := v.mode == safering.Inline
		kind := uint32(safering.KindShared)
		if inline {
			kind = safering.KindInline
		}
		mkCfg := func() safering.DeviceConfig {
			cfg := safering.DefaultConfig()
			cfg.Mode = v.mode
			cfg.RX = v.rx
			if !inline {
				// Slab modes keep the descriptor ring small; an inline
				// slot must hold a whole frame, so Inline keeps
				// DefaultConfig's geometry.
				cfg.SlotSize = 64
			}
			return cfg
		}
		mk := func() (*safering.Endpoint, *safering.HostPort) {
			return rig(mkCfg(), v.queues).Queue(0)
		}

		out = append(out,
			Scenario{AtkIndexOverclaim, v.name, func() Result {
				ep, _ := mk()
				ep.Shared().RXUsed.Indexes().StoreProd(uint64(ep.Config().Slots) * 4)
				_, err := ep.Recv()
				return verdictFromFatal(AtkIndexOverclaim, v.name, err, safering.ErrProtocol,
					compromised(AtkIndexOverclaim, v.name, "overclaim accepted"))
			}},
			Scenario{AtkIndexRewind, v.name, func() Result {
				ep, hp := mk()
				buf := make([]byte, ep.Config().FrameCap())
				for i := 0; i < 3; i++ {
					if err := ep.Send(frame(64, 1)); err != nil {
						return compromised(AtkIndexRewind, v.name, "setup: "+err.Error())
					}
					if _, err := hp.Pop(buf); err != nil {
						return compromised(AtkIndexRewind, v.name, "setup: "+err.Error())
					}
				}
				if err := ep.Reap(); err != nil {
					return compromised(AtkIndexRewind, v.name, "setup reap: "+err.Error())
				}
				ep.Shared().TX.Indexes().StoreCons(1)
				err := ep.Reap()
				return verdictFromFatal(AtkIndexRewind, v.name, err, safering.ErrProtocol,
					compromised(AtkIndexRewind, v.name, "rewind accepted"))
			}},
			Scenario{AtkLengthLie, v.name, func() Result {
				ep, _ := mk()
				// A valid kind word at the current epoch, so the lie
				// reaches the length check rather than the kind check.
				ep.Shared().RXUsed.WriteDesc(0, safering.Desc{Len: 1 << 30, Kind: safering.KindWord(kind, ep.Shared().Epoch)})
				ep.Shared().RXUsed.Indexes().StoreProd(1)
				_, err := ep.Recv()
				return verdictFromFatal(AtkLengthLie, v.name, err, safering.ErrProtocol,
					compromised(AtkLengthLie, v.name, "lied length accepted"))
			}},
			Scenario{AtkDoubleFetch, v.name, func() Result {
				ep, hp := mk()
				want := frame(256, 7)
				if err := hp.Push(want); err != nil {
					return compromised(AtkDoubleFetch, v.name, "setup: "+err.Error())
				}
				rx, err := ep.Recv()
				if err != nil {
					return compromised(AtkDoubleFetch, v.name, "setup: "+err.Error())
				}
				// Host rewrites the payload after delivery: the ring slot
				// it arrived in, or every slab through the host's
				// (fault-checked) view; only the guest can touch revoked
				// pages directly.
				junk := bytes.Repeat([]byte{0xEE}, 256)
				if inline {
					ep.Shared().RXUsed.WriteInline(0, junk)
				} else {
					hv := ep.Shared().RXData.HostView()
					for page := 0; page < ep.Config().Slots; page++ {
						werr := hv.WriteAt(junk, uint64(page)*platform.PageSize)
						if v.rx == safering.Revoke && page == 0 && !errors.Is(werr, platform.ErrRevoked) {
							return compromised(AtkDoubleFetch, v.name, "revoked page writable by host")
						}
					}
				}
				if !bytes.Equal(rx.Bytes(), want) {
					return compromised(AtkDoubleFetch, v.name, "post-delivery rewrite visible to guest")
				}
				rx.Release()
				return blocked(AtkDoubleFetch, v.name, fmt.Sprintf("%s closes the window", v.rx))
			}},
			Scenario{AtkReplay, v.name, func() Result {
				if inline {
					return na(AtkReplay, v.name, "no slab custody: an inline completion carries its own bytes")
				}
				ep, hp := mk()
				if err := hp.Push(frame(64, 1)); err != nil {
					return compromised(AtkReplay, v.name, "setup: "+err.Error())
				}
				rx, err := ep.Recv()
				if err != nil {
					return compromised(AtkReplay, v.name, "setup: "+err.Error())
				}
				d := ep.Shared().RXUsed.ReadDesc(0)
				ep.Shared().RXUsed.WriteDesc(1, d)
				ep.Shared().RXUsed.Indexes().StoreProd(2)
				rx2, err := ep.Recv()
				if v.rx == safering.Revoke {
					// Slab is guest-held: the replay is a use-after-free
					// attempt and must be fatal.
					_ = rx
					return verdictFromFatal(AtkReplay, v.name, err, safering.ErrProtocol,
						compromised(AtkReplay, v.name, "replayed completion accepted for held slab"))
				}
				// Copy mode reposted the slab, so the replay is just a
				// host-injected frame: network-equivalent noise.
				if err == nil {
					rx2.Release()
					return degraded(AtkReplay, v.name, "replay == garbage frame injection (host can always inject)")
				}
				return blocked(AtkReplay, v.name, err.Error())
			}},
			Scenario{AtkForgedHandle, v.name, func() Result {
				if inline {
					return na(AtkForgedHandle, v.name, "inline descriptors carry no slab handle")
				}
				ep, hp := mk()
				if v.rx == safering.Revoke {
					if err := hp.Push(frame(64, 1)); err != nil {
						return compromised(AtkForgedHandle, v.name, "setup: "+err.Error())
					}
					rx, err := ep.Recv() // hold the slab
					if err != nil {
						return compromised(AtkForgedHandle, v.name, "setup: "+err.Error())
					}
					defer rx.Release()
					held := ep.Shared().RXUsed.ReadDesc(0).Ref
					forged := 0xFFFFFFFF00000000 | held
					ep.Shared().RXUsed.WriteDesc(1, safering.Desc{Len: 64, Kind: safering.KindShared, Ref: forged})
					ep.Shared().RXUsed.Indexes().StoreProd(2)
					_, err = ep.Recv()
					return verdictFromFatal(AtkForgedHandle, v.name, err, safering.ErrProtocol,
						compromised(AtkForgedHandle, v.name, "forged handle reached held slab"))
				}
				ep.Shared().RXUsed.WriteDesc(0, safering.Desc{Len: 64, Kind: safering.KindShared, Ref: 0xFFFFFFFFFFFF0000})
				ep.Shared().RXUsed.Indexes().StoreProd(1)
				rx, err := ep.Recv()
				if err != nil {
					return blocked(AtkForgedHandle, v.name, err.Error())
				}
				rx.Release()
				return degraded(AtkForgedHandle, v.name, "masked into range: garbage frame, no escape")
			}},
			Scenario{AtkNotifStorm, v.name, func() Result {
				cfg := mkCfg()
				cfg.Notify = true
				return fromChaos(AtkNotifStorm, v.name, chaos.DoorbellFlood(rig(cfg, v.queues)))
			}},
			Scenario{AtkEventIdxLie, v.name, func() Result {
				// An event-idx device: the host scribbles garbage and
				// rolled-back wake thresholds into both event words while
				// traffic runs. The words feed a wrap-compare only, so the
				// lie can shift notification timing but must never corrupt
				// state or kill a polling guest.
				cfg := mkCfg()
				cfg.Notify = true
				cfg.EventIdx = true
				ep, hp := rig(cfg, v.queues).Queue(0)
				buf := make([]byte, ep.Config().FrameCap())
				garbage := []uint64{^uint64(0), 1 << 63, 5, 0}
				for i := 0; i < 32; i++ {
					ep.Shared().TX.Indexes().StoreEvent(garbage[i%len(garbage)])
					ep.Shared().RXUsed.Indexes().StoreEvent(garbage[(i+1)%len(garbage)])
					if err := ep.Send(frame(64, byte(i))); err != nil {
						return compromised(AtkEventIdxLie, v.name, "send died under lying threshold: "+err.Error())
					}
					if _, err := hp.Pop(buf); err != nil {
						return compromised(AtkEventIdxLie, v.name, "pop died under lying threshold: "+err.Error())
					}
					want := frame(96, byte(i))
					if err := hp.Push(want); err != nil {
						return compromised(AtkEventIdxLie, v.name, "push died under lying threshold: "+err.Error())
					}
					rx, err := ep.Recv()
					if err != nil {
						return compromised(AtkEventIdxLie, v.name, "recv died under lying threshold: "+err.Error())
					}
					if !bytes.Equal(rx.Bytes(), want) {
						return compromised(AtkEventIdxLie, v.name, "lying threshold corrupted delivery")
					}
					rx.Release()
				}
				if err := ep.Dead(); err != nil {
					return compromised(AtkEventIdxLie, v.name, "lying threshold killed the device: "+err.Error())
				}
				// The same lie against a live stack parked on the device.
				if err := eventIdxLieParked(cfg, v.queues); err != nil {
					return compromised(AtkEventIdxLie, v.name, err.Error())
				}
				return blocked(AtkEventIdxLie, v.name, "event word feeds a wrap-compare only: timing shifted, state intact, parked stack kept answering")
			}},
			Scenario{AtkWakeSpam, v.name, func() Result {
				return wakeSpam(v.name, mkCfg(), v.queues)
			}},
			Scenario{AtkFeatureTOCTOU, v.name, func() Result {
				return na(AtkFeatureTOCTOU, v.name, "zero-negotiation: no control plane exists")
			}},
			Scenario{AtkQueueCrossKill, v.name, func() Result {
				if v.queues <= 1 {
					return na(AtkQueueCrossKill, v.name, "single queue: no sibling to kill selectively")
				}
				return fromChaos(AtkQueueCrossKill, v.name, chaos.CrossKill(AtkQueueCrossKill, chaos.NewMultiDevice(mkCfg(), v.queues)))
			}},
			Scenario{AtkEpochReplay, v.name, func() Result {
				return fromChaos(AtkEpochReplay, v.name, chaos.EpochReplay(rig(mkCfg(), v.queues)))
			}},
			Scenario{AtkReattachStorm, v.name, func() Result {
				return fromChaos(AtkReattachStorm, v.name, chaos.ReattachStorm(AtkReattachStorm, rig(mkCfg(), v.queues)))
			}},
			Scenario{AtkStaleMemory, v.name, func() Result {
				if inline {
					return na(AtkStaleMemory, v.name, "no slab is freed or reused: the payload sits in the slot the host already read")
				}
				ep, hp := mk()
				// Transmit a secret, let the host consume it, reap, then
				// check the host-visible slab is scrubbed.
				secret := frame(128, 0x5E)
				if err := ep.Send(secret); err != nil {
					return compromised(AtkStaleMemory, v.name, "setup: "+err.Error())
				}
				buf := make([]byte, ep.Config().FrameCap())
				if _, err := hp.Pop(buf); err != nil {
					return compromised(AtkStaleMemory, v.name, "setup: "+err.Error())
				}
				if err := ep.Reap(); err != nil {
					return compromised(AtkStaleMemory, v.name, "reap: "+err.Error())
				}
				leak := make([]byte, 128)
				ep.Shared().TXData.Region().ReadAt(leak, 0)
				for _, b := range leak {
					if b != 0 {
						return compromised(AtkStaleMemory, v.name, "freed TX slab not scrubbed")
					}
				}
				return blocked(AtkStaleMemory, v.name, "slabs scrubbed on free")
			}},
		)
	}
	return out
}
