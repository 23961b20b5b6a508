(** Deterministic fault plans — the transient-fault adversary of the paper's
    self-stabilization claim, made explicit, replayable and shrinkable.

    A {!plan} is pure data: a seed plus a list of fault events.  Channel
    events (drop / duplicate / reorder / corrupt) act on every message a
    given ordered channel carries while an asynchronous-round window is
    open; scheduled events (crash-restart, edge cut / link) fire once when
    the execution first reaches their round.  The engine applies plans via
    {!Pengine.Make.install_faults} and reports every applied fault as an
    [Obs_fault] observation, so a trace always explains what the adversary
    did.

    {2 Determinism}

    Every probabilistic event draws from its {e own} PRNG stream, derived
    from the plan seed and the event's content ({!rng_for}) — never from
    the engine's stream.  Consequences:

    - installing a plan does not perturb the fault-free execution
      (latencies, tick phases and initial states are byte-identical with
      and without an empty plan);
    - deleting an event from a plan leaves the decisions of every other
      event unchanged, which is exactly what counterexample shrinking
      needs ({!Mdst_check.Shrink});
    - replaying the same (graph, plan, engine seed) triple reproduces the
      same execution, faults included. *)

type window = { from_round : int; upto_round : int }
(** Half-open in neither sense: active while
    [from_round <= round <= upto_round]. *)

type mode = [ `Init | `Random ]
(** Crash-restart re-initialization: a factory reboot ([`Init]) or an
    arbitrary corrupted state ([`Random], the automaton's [random_state]). *)

type event =
  | Drop of { window : window; src : int; dst : int; prob : float }
      (** Lose each message on channel [src -> dst] with probability
          [prob] while the window is open. *)
  | Duplicate of { window : window; src : int; dst : int; prob : float; copies : int }
      (** Deliver [copies] extra copies of each affected message: exactly
          [copies + 1] deliveries in total — the original plus the extras
          (each floored by the channel's FIFO order like any send). *)
  | Reorder of { window : window; src : int; dst : int; prob : float; delay : float }
      (** Delay each affected message by up to [delay] extra time units,
          {e bypassing} the channel's FIFO floor, so later messages can
          overtake it. *)
  | Corrupt of { window : window; src : int; dst : int; prob : float }
      (** Replace each affected payload by an arbitrary message of the
          automaton's [random_msg]; dropped if the automaton does not model
          payload corruption. *)
  | Crash of { at_round : int; node : int; mode : mode }
      (** Crash-restart: the node's state is re-initialized per [mode] and
          every message in flight to or from it is lost.  The purged
          channels {e keep} their FIFO floors: traffic after the restart is
          still delivered strictly after the lost messages' arrival times —
          the link itself was never torn down, only its content was lost
          (pinned by the [purge keeps fifo floor] regression test). *)
  | Cut of { at_round : int; u : int; v : int }
      (** Remove edge [{u, v}]; skipped (and recorded as skipped) if the
          edge is absent or is a bridge — the paper's model requires the
          network to stay connected. *)
  | Link of { at_round : int; u : int; v : int }
      (** Add edge [{u, v}]; skipped if already present or [u = v]. *)

type plan = { plan_seed : int; events : event list }

val empty : plan

val is_empty : plan -> bool

val last_fault_round : plan -> int
(** The last round at which the plan can still act: the maximum over
    window ends and scheduled rounds ([0] for the empty plan).
    Convergence-under-adversity properties budget rounds {e after} this
    point. *)

val nodes_mentioned : plan -> int list
(** Every node index an event references, deduplicated and sorted (used to
    remap or drop events when shrinking deletes a vertex). *)

val rng_for : plan -> event -> Mdst_util.Prng.t
(** The event's private PRNG stream: a pure function of the plan seed and
    the event's content (window, channel, probabilities — everything but
    the surrounding list). *)

(** {1 Accounting} *)

type stats = {
  drops : int;
  duplicates : int;
  reorders : int;
  corruptions : int;
  crashes : int;
  cuts : int;
  links : int;
  skipped : int;  (** scheduled events that were infeasible when due *)
}

val zero_stats : stats

val total : stats -> int
(** Applied faults, [skipped] excluded. *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 Textual form}

    The plan's wire format is the reproducer format printed by the PBT
    harness and accepted by the CLI's [--faults]:

    {v
    seed=7|drop:10-400:0>1:0.5|dup:0-100:2>3:0.25:2
         |reorder:50-90:1>0:1:5.0|corrupt:0-60:3>2:0.1
         |crash:120:4:random|cut:200:0-3|link:240:1-4
    v}

    Events are separated by [|]; the [seed=] component may appear anywhere
    and defaults to 0. *)

val event_to_string : event -> string

val event_of_string : string -> event
(** @raise Invalid_argument on malformed input. *)

val to_string : plan -> string

val of_string : string -> plan
(** @raise Invalid_argument on malformed input. *)
