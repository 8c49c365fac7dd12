package machine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"snap1/internal/fault"
	"snap1/internal/perfmon"
)

// ErrFaultsNeedLockstep is returned by SetFaultInjector on a machine
// built with Deterministic off.
var ErrFaultsNeedLockstep = errors.New("machine: fault injection needs the lockstep engine (Config.Deterministic)")

// SetFaultInjector arms deterministic fault injection on this machine
// (nil disarms): ICN message drop/duplication/delay, drawn per message by
// the lockstep engine as it routes (lockstepTask), and whole-run
// wedges/slowdowns, drawn at run entry. Decisions come from the
// injector's seeded streams, so a run under a plan is bit-reproducible,
// and a run whose ICN traffic was corrupted fails with an error wrapping
// fault.ErrInjected rather than returning silently wrong markers.
//
// The reference engine's live interconnect has no injection points, so
// arming a machine built with Deterministic off is refused
// (ErrFaultsNeedLockstep) rather than honoured for the whole-run sites
// only.
//
// Must be called while the machine is idle (no run in progress). The
// injector survives LoadKB; clones start unarmed.
func (m *Machine) SetFaultInjector(inj *fault.Injector) error {
	if inj != nil && !m.cfg.Deterministic {
		return ErrFaultsNeedLockstep
	}
	m.inj = inj
	if mon := m.cfg.Monitor; mon != nil {
		// Fault events carry no virtual time: the whole-run sites are
		// drawn before the run's clocks are reset.
		inj.SetHook(func(site fault.Site) {
			mon.Emit(-1, perfmon.EvFaultInjected, uint32(site), 0)
		})
	}
	return nil
}

// injectRunFaults applies whole-run fault decisions at run entry: a
// wedge holds the machine unresponsive until the caller's deadline; a
// slowdown stalls the response in host time.
func (m *Machine) injectRunFaults(ctx context.Context) error {
	inj := m.inj
	if inj == nil {
		return nil
	}
	if inj.WedgeRun() {
		<-ctx.Done()
		return ctx.Err()
	}
	if d := inj.SlowRun(); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	return nil
}

// poisonIfCorrupted fails a completed run whose ICN traffic suffered
// corrupting injections since the given snapshot; the error is
// retryable, and an unfaulted re-run returns the bit-identical result.
func (m *Machine) poisonIfCorrupted(before int64) error {
	if m.inj == nil {
		return nil
	}
	if n := m.inj.Corrupting() - before; n > 0 {
		return fmt.Errorf("machine: %d ICN message(s) corrupted during run: %w", n, fault.ErrInjected)
	}
	return nil
}
