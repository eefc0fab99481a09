package main

import (
	"flag"

	"dessched"
	"dessched/internal/admission"
	"dessched/internal/cluster"
	"dessched/internal/sim"
)

// policyFlags are the SLO-policy flags shared by `desim sim`, `sweep`,
// `chaos`, and `tournament`: the ready-queue discipline, the admission
// stage, and (for fleet commands) the dispatch policy. One registration
// helper keeps flag names, defaults, and help text identical across the
// subcommands; help text and parsing both read each kind's name table, so
// every command accepts exactly the registry names and aliases.
type policyFlags struct {
	Order     string
	Admission string
	MaxQueue  int
	Dispatch  string
}

// registerPolicyFlags declares -order and -admission/-max-queue on fs,
// plus -dispatch when the command runs fleets. def supplies per-command
// defaults (zero fields take the registry defaults: fcfs / none / rr).
func registerPolicyFlags(fs *flag.FlagSet, def policyFlags, withDispatch bool) *policyFlags {
	p := &def
	fs.StringVar(&p.Order, "order", def.Order,
		"ready-queue discipline: "+sim.QueueOrders.Help())
	fs.StringVar(&p.Admission, "admission", def.Admission,
		"load shedding: "+admission.Policies.Help())
	fs.IntVar(&p.MaxQueue, "max-queue", def.MaxQueue,
		"queue length beyond which admission control sheds")
	if withDispatch {
		fs.StringVar(&p.Dispatch, "dispatch", def.Dispatch,
			"cluster dispatch: "+cluster.Dispatches.Help())
	}
	return p
}

// queueOrder resolves -order through sim.QueueOrders.
func (p *policyFlags) queueOrder() (dessched.QueueOrder, error) {
	return dessched.ParseQueueOrder(p.Order)
}

// admissionConfig resolves -admission/-max-queue; a "none" (or empty)
// policy yields the zero config, i.e. shedding disabled.
func (p *policyFlags) admissionConfig() (dessched.AdmissionConfig, error) {
	ap, err := dessched.ParseAdmission(p.Admission)
	if err != nil || ap == dessched.AdmitAll {
		return dessched.AdmissionConfig{}, err
	}
	return dessched.AdmissionConfig{Policy: ap, MaxQueue: p.MaxQueue}, nil
}

// dispatchPolicy resolves -dispatch through cluster.Dispatches.
func (p *policyFlags) dispatchPolicy() (dessched.DispatchPolicy, error) {
	return dessched.ParseDispatch(p.Dispatch)
}

// applyTo resolves the order and admission flags into a server config —
// the common path of commands that run the single-server engine directly.
func (p *policyFlags) applyTo(cfg *dessched.ServerConfig) error {
	order, err := p.queueOrder()
	if err != nil {
		return err
	}
	cfg.QueueOrder = order
	ac, err := p.admissionConfig()
	if err != nil {
		return err
	}
	if ac.Policy != dessched.AdmitAll {
		cfg.Admission = ac
	}
	return nil
}
