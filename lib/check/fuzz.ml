(* Coverage-guided schedule fuzzing.  See fuzz.mli for the statement.

   One execution = one swarm configuration + one delivery schedule,
   replayed through the engine's [step_with] hook.  Three oracles share
   the entry format:

   - lockstep: the Lockstep driver (real automaton vs the pure reference
     model, event by event, plus the legitimacy-closure premise);
   - adversity: the Convergence harness under an installed fault plan,
     with the fuzzed schedule as its prefix;
   - decoupling: twin engines whose [corrupt] pulses differ only in the
     [channels] flag must corrupt the same victims to the same states.

   Novelty = new projection fingerprints (fine or labeling-insensitive)
   or new (probe, hit-bucket) coverage points from the [proto:*] probes
   riding the Mutation plumbing. *)

module Graph = Mdst_graph.Graph
module Model = Mdst_model.Model
module State = Mdst_core.State
module Msg = Mdst_core.Msg
module Projection = Mdst_core.Projection
module Node = Mdst_sim.Node
module Fault = Mdst_sim.Fault
module Prng = Mdst_util.Prng
module Mutation = Mdst_util.Mutation

type variant = [ `Default | `Suppressed ]

type init = [ `Clean | `Legitimate | `Random ]

type daemon = [ `Async | `Sync ]

type config = {
  variant : variant;
  init : init;
  graph : Graph.t;
  engine_seed : int;
  plan : Fault.plan;
  double_corrupt : bool;
  domains : int;
  daemon : daemon;
}

type entry = { config : config; sched : string list; steps : int }

type trophy_kind = Divergence | Closure | Crash | Adversity | Decoupling

let kind_to_string = function
  | Divergence -> "divergence"
  | Closure -> "closure"
  | Crash -> "crash"
  | Adversity -> "adversity"
  | Decoupling -> "decoupling"

type trophy = { t_kind : trophy_kind; t_entry : entry; t_detail : string }

(* ---------------- reproducer format ---------------- *)

let fail fmt = Printf.ksprintf invalid_arg fmt

let variants = [ ("default", `Default); ("suppressed", `Suppressed) ]

let inits = [ ("clean", `Clean); ("legitimate", `Legitimate); ("random", `Random) ]

let daemons = [ ("async", `Async); ("sync", `Sync) ]

let entry_to_string (e : entry) =
  let name x names = fst (List.find (fun (_, y) -> y = x) names) in
  let slen = List.length e.sched in
  String.concat ";"
    ([ "variant=" ^ name e.config.variant variants; "init=" ^ name e.config.init inits ]
    @ Repro.common e.config.graph ~seed:e.config.engine_seed
    @ (if Fault.is_empty e.config.plan then []
       else [ "plan=" ^ Fault.to_string e.config.plan ])
    @ (if e.config.double_corrupt then [ "dc=1" ] else [])
    @ (if e.config.domains = 1 then [] else [ Printf.sprintf "k=%d" e.config.domains ])
    @ (if e.config.daemon = `Async then [] else [ "daemon=" ^ name e.config.daemon daemons ])
    @ (if e.steps = slen then [] else [ Printf.sprintf "steps=%d" e.steps ])
    @ if e.sched = [] then [] else [ "sched=" ^ String.concat "," e.sched ])

let entry_of_string s =
  let f =
    Repro.parse ~what:"Fuzz.entry_of_string"
      ~keys:[ "variant"; "init"; "plan"; "dc"; "k"; "daemon"; "steps"; "sched" ]
      s
  in
  let sched =
    match Repro.find f "sched" with
    | None -> []
    | Some v ->
        String.split_on_char ',' v |> List.map String.trim
        |> List.filter (fun t -> t <> "")
        |> List.map (fun t ->
               (try ignore (Model.event_of_string t)
                with Failure _ -> Repro.bad f "sched" t);
               t)
  in
  {
    config =
      {
        variant = Option.value ~default:`Default (Repro.enum f "variant" variants);
        init = Option.value ~default:`Clean (Repro.enum f "init" inits);
        graph = Repro.graph f;
        engine_seed = Repro.seed f;
        plan = Repro.plan f;
        double_corrupt = Repro.find f "dc" = Some "1";
        domains = max 1 (Option.value ~default:1 (Repro.nat f "k"));
        daemon = Option.value ~default:`Async (Repro.enum f "daemon" daemons);
      };
    sched;
    steps = Option.value ~default:(List.length sched) (Repro.nat f "steps");
  }

(* ---------------- execution ---------------- *)

(* What one execution produced: the events actually executed (in
   [Model.event_to_string] vocabulary — a trophy's schedule is rebuilt
   from this so it replays strictly), the fingerprints sampled along the
   way (the novelty signal), and the failure, if any. *)
type exec_outcome = {
  x_executed : string list;
  x_fps : (int * int) list;  (* fine and labeling-insensitive *)
  x_fail : (trophy_kind * string) option;
}

let fingerprints st = (Projection.fingerprint_states st, Projection.fingerprint_coarse st)

let gap_bucket gap =
  if gap <= 4 then 0
  else if gap <= 16 then 1
  else if gap <= 64 then 2
  else if gap <= 256 then 3
  else 4

module Exec
    (A : Node.AUTOMATON with type state = State.t and type msg = Msg.t) (P : sig
      val params : Model.params
    end) =
struct
  module L = Lockstep.Make (A) (P)
  module H = Convergence.Harness (A)
  module E = H.Sim

  let engine_init (cfg : config) =
    match cfg.init with `Random -> `Random | `Clean | `Legitimate -> `Clean

  (* Lockstep mode: every executed event is mirrored on the reference
     model, with the closure premise armed. *)
  let run_lockstep ~pick (cfg : config) ~total =
    let states =
      match cfg.init with
      | `Legitimate -> Some (Explore.legitimate_states cfg.graph)
      | `Clean | `Random -> None
    in
    let fps = ref [] in
    let chooser = match cfg.daemon with `Async -> Lockstep.Pick pick | `Sync -> Lockstep.Sync in
    let r =
      L.run ?states ~premise:Explore.premise
        ~observe:(fun st -> fps := fingerprints st :: !fps)
        ~domains:cfg.domains ~seed:cfg.engine_seed ~init:(engine_init cfg) ~events:total chooser
        cfg.graph
    in
    {
      x_executed = List.map Model.event_to_string r.Lockstep.executed;
      x_fps = !fps;
      x_fail =
        Option.map
          (fun (f : Lockstep.failure) ->
            ( (match f.Lockstep.kind with
              | Lockstep.Divergence -> Divergence
              | Lockstep.Closure -> Closure),
              Lockstep.describe f ))
          r.Lockstep.failure;
    }

  (* Adversity mode: the Convergence harness under the installed plan,
     with the fuzzed schedule as its prefix (fingerprints sampled every
     4th event). *)
  let run_adversity ~pick (cfg : config) ~total =
    let executed = ref [] and fps = ref [] in
    let prefix engine =
      if cfg.init = `Legitimate then
        Array.iteri (E.set_state engine) (Explore.legitimate_states cfg.graph);
      let i = ref 0 in
      let record ev = executed := Model.event_to_string ev :: !executed in
      let choose options =
        let evs =
          Array.map
            (function
              | E.Choose_tick { node } -> Model.Tick node
              | E.Choose_deliver { src; dst; _ } -> Model.Deliver { src; dst })
            options
        in
        let k = pick evs in
        record evs.(k);
        k
      in
      let step =
        match cfg.daemon with
        | `Async -> fun () -> E.step_with engine ~choose
        | `Sync ->
            E.observe engine (function
              | Mdst_sim.Pengine.Obs_tick { node; _ } -> record (Model.Tick node)
              | Mdst_sim.Pengine.Obs_deliver { src; dst; _ } -> record (Model.Deliver { src; dst })
              | Mdst_sim.Pengine.Obs_fault _ -> ());
            fun () -> E.step_sync engine
      in
      while !i < total && step () do
        if !i land 3 = 0 then fps := fingerprints (E.states engine) :: !fps;
        incr i
      done;
      E.unobserve engine
    in
    let r =
      H.run_case ~init:(engine_init cfg) ~prefix ~domains:cfg.domains
        { Convergence.graph = cfg.graph; plan = cfg.plan; seed = cfg.engine_seed }
    in
    Mutation.probe
      (Printf.sprintf "fuzz:adv-gap-%d" (gap_bucket (r.rounds - r.last_fault_round)));
    Mutation.probe_n "fuzz:adv-faults" (Fault.total r.stats);
    if r.converged && not r.outstanding then Mutation.probe "fuzz:adv-converged";
    {
      x_executed = List.rev !executed;
      x_fps = !fps;
      x_fail =
        (match Convergence.verdict r with Ok () -> None | Error d -> Some (Adversity, d));
    }

  (* Decoupling mode: twin engines, same seed; each corrupt pulse flips
     the [channels] flag between them.  Victim sets and corrupted states
     come from split streams, so the states must agree either way — a
     mutant that draws from the engine stream couples them. *)
  let run_decoupling (cfg : config) =
    let init = engine_init cfg in
    let e1 = E.create ~seed:cfg.engine_seed ~init ~domains:cfg.domains cfg.graph in
    let e2 = E.create ~seed:cfg.engine_seed ~init ~domains:cfg.domains cfg.graph in
    let rng = Prng.create (cfg.engine_seed lxor 0x7a3d) in
    let pulses = 2 + Prng.int rng 3 in
    let failure = ref None in
    let fps = ref [] in
    let p = ref 0 in
    while !p < pulses && !failure = None do
      let fraction = 0.25 +. Prng.float rng 0.75 in
      let ch = Prng.bool rng in
      ignore (E.corrupt e1 ~fraction ~channels:ch ());
      ignore (E.corrupt e2 ~fraction ~channels:(not ch) ());
      Mutation.probe (Printf.sprintf "fuzz:dc-pulse-%d" !p);
      if E.states e1 <> E.states e2 then
        failure :=
          Some
            ( Decoupling,
              Printf.sprintf
                "corrupt pulse %d (fraction %.2f): victim states depend on the \
                 channels flag"
                !p fraction )
      else fps := fingerprints (E.states e1) :: !fps;
      incr p
    done;
    { x_executed = []; x_fps = !fps; x_fail = !failure }

  (* Strict mode replays the schedule exactly and fails closed when a
     step is no longer eligible; adaptive mode consumes it as a
     preference list and falls back to a uniform random choice. *)
  let execute_entry ~strict ~rng (e : entry) =
    let cfg = e.config in
    if cfg.double_corrupt then run_decoupling cfg
    else begin
      let sched = Array.of_list (List.map Model.event_of_string e.sched) in
      let slen = Array.length sched in
      let n = Graph.n cfg.graph in
      let adversity = not (Fault.is_empty cfg.plan) in
      let default_total = if adversity then (8 * n) + 64 else (48 * n) + 128 in
      if strict && slen = 0 then failwith "Fuzz.replay: empty schedule — nothing to replay";
      (* Strict steps past [slen] make {!Lockstep.strict} fail closed. *)
      let total =
        if strict then max slen e.steps
        else max slen (if e.steps > 0 then e.steps else default_total)
      in
      let pick =
        if strict then Lockstep.strict sched else Lockstep.prefer ~fallback:rng sched
      in
      if adversity then run_adversity ~pick cfg ~total else run_lockstep ~pick cfg ~total
    end
end

module Exec_default = Exec (Mdst_core.Proto.Default) (Lockstep.Default_params)
module Exec_suppressed = Exec (Mdst_core.Proto.Suppressed) (Lockstep.Suppressed_params)

let execute ~strict ~rng (e : entry) =
  match e.config.variant with
  | `Default -> Exec_default.execute_entry ~strict ~rng e
  | `Suppressed -> Exec_suppressed.execute_entry ~strict ~rng e

let replay e =
  match (execute ~strict:true ~rng:(Prng.create 0) e).x_fail with
  | None -> Ok ()
  | Some (k, d) -> Error (k, d)

(* ---------------- shrinking ---------------- *)

(* Shrink candidates run adaptively (a dropped chunk can make later
   schedule entries ineligible; the adaptive chooser skips them), with
   the chooser's fallback stream derived from the candidate itself so a
   re-run of the same candidate replays bit-identically.  An accepted
   candidate's entry is rebuilt from what actually executed, so the final
   trophy always replays strictly. *)
let run_deterministic e =
  let rng = Prng.create (Prng.seed_of_string (entry_to_string e)) in
  execute ~strict:false ~rng e

let shrink_trophy ?(max_attempts = 300) (trophy : trophy) =
  let attempts = ref max_attempts in
  let try_entry e =
    match run_deterministic e with
    | out -> (out.x_fail, out.x_executed)
    | exception exn -> (Some (Crash, Printexc.to_string exn), [])
  in
  let rebuild cand executed =
    if executed = [] then cand
    else { cand with sched = executed; steps = List.length executed }
  in
  let rec minimize (t : trophy) =
    if !attempts <= 0 then t
    else begin
      let e = t.t_entry in
      let sched_cands =
        Seq.map (fun s -> { e with sched = s; steps = List.length s }) (Shrink.list e.sched)
      in
      let plan_cands =
        if Fault.is_empty e.config.plan then Seq.empty
        else
          Seq.map
            (fun p -> { e with config = { e.config with plan = p } })
            (Shrink.plan e.config.plan)
      in
      let rec search cands =
        if !attempts <= 0 then None
        else
          match cands () with
          | Seq.Nil -> None
          | Seq.Cons (cand, rest) -> (
              decr attempts;
              match try_entry cand with
              | Some (k, d), executed when k = t.t_kind ->
                  Some { t_kind = k; t_entry = rebuild cand executed; t_detail = d }
              | _ -> search rest)
      in
      match search (Seq.append sched_cands plan_cands) with
      | Some t' -> minimize t'
      | None -> t
    end
  in
  minimize trophy

(* ---------------- campaign ---------------- *)

type mode = [ `Fuzz | `Random_walk ]

type stats = {
  s_mode : mode;
  s_execs : int;
  s_corpus : int;
  s_fine : int;
  s_coarse : int;
  s_buckets : int;
  s_trophies : trophy list;
  s_elapsed : float;
  s_timeline : (int * int) list;
}

(* AFL-style hit buckets: 1, 2, 3, 4–7, 8–15, 16–31, 32+. *)
let bucketize hits =
  if hits <= 0 then 0
  else if hits <= 3 then hits
  else if hits < 8 then 4
  else if hits < 16 then 5
  else if hits < 32 then 6
  else 7

let gen_graph ~max_n rng =
  (* Size classes: mostly small (fast oracles, dense coverage), some
     medium, occasionally as large as the cap — that is where the issue's
     "medium n" trophies live. *)
  if max_n <= 12 then Gen.connected_graph ~min_n:4 ~max_n () (Prng.split rng)
  else begin
    let c = Prng.int rng 10 in
    let min_n, hi =
      if c < 6 then (4, 12)
      else if c < 9 then (13, min 48 max_n)
      else (min 50 max_n, max_n)
    in
    Gen.connected_graph ~min_n ~max_n:hi () (Prng.split rng)
  end

let gen_plan graph rng = Gen.fault_plan ~graph ~max_events:4 ~horizon:160 () (Prng.split rng)

let vocab graph =
  let n = Graph.n graph in
  let ticks = List.init n (Printf.sprintf "t%d") in
  let dirs =
    Array.to_list (Graph.edges graph)
    |> List.concat_map (fun (u, v) ->
           [ Printf.sprintf "%d>%d" u v; Printf.sprintf "%d>%d" v u ])
  in
  Array.of_list (ticks @ dirs)

(* The swarm sweep: deterministic seed entries covering every toggle
   combination that matters, cheapest detectors first — suppressed
   lockstep (Info-refresh bugs), stream decoupling, adversity under fault
   plans (stop-predicate bugs), then the remaining variant x init
   pairs.  Each entry starts with an empty schedule; the adaptive run
   records what executed and the corpus keeps the recording. *)
(* Stretch one channel event's window up to the plan's last active round
   and raise its probability: maximal tampering pressure exactly where a
   convergence check first gets to declare victory (the stop predicate
   may only fire after [last_fault_round]).  This is the mutator that
   hunts stop-check races; Drop and Corrupt victims are rebuilt as
   Duplicates because an exact copy of a current-valued message never
   breaks legitimacy — it stays tampered-in-flight right across the stop
   boundary while the configuration it races is still legitimate,
   whereas a corrupted delivery perturbs state and forces a
   re-stabilization gap the tampered horizon rarely survives. *)
let sharpen_plan rng (plan : Fault.plan) =
  let last = Fault.last_fault_round plan in
  let is_chan = function
    | Fault.Drop _ | Fault.Duplicate _ | Fault.Reorder _ | Fault.Corrupt _ -> true
    | Fault.Crash _ | Fault.Cut _ | Fault.Link _ -> false
  in
  let chans = List.filteri (fun _ e -> is_chan e) plan.Fault.events in
  if chans = [] then plan
  else begin
    let victim = List.nth chans (Prng.int rng (List.length chans)) in
    let window =
      { Fault.from_round = max 0 (last - 4 - Prng.int rng 24); upto_round = last }
    in
    let prob = 0.7 +. Prng.float rng 0.3 in
    let sharpened =
      match victim with
      | Fault.Drop { src; dst; _ } | Fault.Corrupt { src; dst; _ } ->
          Fault.Duplicate { window; src; dst; prob; copies = 1 + Prng.int rng 2 }
      | Fault.Duplicate { src; dst; copies; _ } ->
          Fault.Duplicate { window; src; dst; prob; copies }
      | Fault.Reorder { src; dst; delay; _ } -> Fault.Reorder { window; src; dst; prob; delay }
      | (Fault.Crash _ | Fault.Cut _ | Fault.Link _) as e -> e
    in
    let replaced = ref false in
    let events =
      List.map
        (fun e ->
          if (not !replaced) && e == victim then begin
            replaced := true;
            sharpened
          end
          else e)
        plan.Fault.events
    in
    { plan with Fault.events = events }
  end

(* The engine half of a swarm configuration.  One draw in sixteen runs 2
   or 4 shards (never when the plan schedules crashes, cuts or links) —
   an adversity run then spawns domains at every window for its whole
   length — and one in eight the synchronous daemon, whose schedule the
   policy decides; the rest leave the schedule to the fuzzer on one
   shard. *)
let scheduled (plan : Fault.plan) =
  List.exists
    (function Fault.Crash _ | Fault.Cut _ | Fault.Link _ -> true | _ -> false)
    plan.Fault.events

let draw_engine rng (cfg : config) =
  let domains = if Prng.int rng 16 = 0 then [| 2; 4 |].(Prng.int rng 2) else 1 in
  {
    cfg with
    domains = (if scheduled cfg.plan then 1 else domains);
    daemon = (if Prng.int rng 8 = 0 then `Sync else `Async);
  }

let sweep_entries ~max_n rng =
  let seed () = Prng.int rng 1_000_000 in
  let mk variant init ~plan ~dc graph =
    {
      config =
        draw_engine rng
          {
            variant;
            init;
            graph;
            engine_seed = seed ();
            plan;
            double_corrupt = dc;
            domains = 1;
            daemon = `Async;
          };
      sched = [];
      steps = 0;
    }
  in
  let plain variant init = mk variant init ~plan:Fault.empty ~dc:false (gen_graph ~max_n rng) in
  let dc variant init = mk variant init ~plan:Fault.empty ~dc:true (gen_graph ~max_n rng) in
  (* Sweep adversity plans start sharpened: a tampering window pressed
     against the stop boundary is the fuzzer's prior about where
     stop-predicate bugs live.  The plan redraw mutators un-sharpen. *)
  let adv variant init =
    let g = gen_graph ~max_n rng in
    mk variant init ~plan:(sharpen_plan rng (gen_plan g rng)) ~dc:false g
  in
  [
    plain `Suppressed `Clean;
    dc `Default `Random;
    adv `Default `Random;
    plain `Default `Clean;
    adv `Suppressed `Clean;
    plain `Default `Random;
    adv `Default `Legitimate;
    plain `Default `Legitimate;
    adv `Suppressed `Random;
    plain `Suppressed `Random;
    dc `Suppressed `Clean;
    plain `Suppressed `Legitimate;
  ]

let shift_window d { Fault.from_round; upto_round } =
  let from_round = max 0 (from_round + d) in
  { Fault.from_round; upto_round = max from_round (upto_round + d) }

let shift_event d (e : Fault.event) =
  match e with
  | Fault.Drop { window; src; dst; prob } ->
      Fault.Drop { window = shift_window d window; src; dst; prob }
  | Fault.Duplicate { window; src; dst; prob; copies } ->
      Fault.Duplicate { window = shift_window d window; src; dst; prob; copies }
  | Fault.Reorder { window; src; dst; prob; delay } ->
      Fault.Reorder { window = shift_window d window; src; dst; prob; delay }
  | Fault.Corrupt { window; src; dst; prob } ->
      Fault.Corrupt { window = shift_window d window; src; dst; prob }
  | Fault.Crash { at_round; node; mode } ->
      Fault.Crash { at_round = max 0 (at_round + d); node; mode }
  | Fault.Cut { at_round; u; v } -> Fault.Cut { at_round = max 0 (at_round + d); u; v }
  | Fault.Link { at_round; u; v } -> Fault.Link { at_round = max 0 (at_round + d); u; v }

let mutate_sched rng graph sched steps =
  let arr = Array.of_list sched in
  let len = Array.length arr in
  let keep_steps l = max (List.length l) steps in
  match Prng.int rng 6 with
  | 0 when len >= 2 ->
      let i = Prng.int rng len and j = Prng.int rng len in
      let a = Array.copy arr in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t;
      let l = Array.to_list a in
      (l, keep_steps l)
  | 1 when len >= 2 ->
      (* delay: pull one event to a later position *)
      let i = Prng.int rng (len - 1) in
      let j = i + 1 + Prng.int rng (len - i - 1) in
      let a = Array.copy arr in
      let t = a.(i) in
      Array.blit a (i + 1) a i (j - i);
      a.(j) <- t;
      let l = Array.to_list a in
      (l, keep_steps l)
  | 2 when len >= 1 ->
      let i = Prng.int rng len in
      let l =
        List.concat (List.mapi (fun j x -> if j = i then [ x; x ] else [ x ]) sched)
      in
      (l, keep_steps l)
  | 3 when len >= 2 ->
      let i = Prng.int rng len in
      let k = 1 + Prng.int rng (max 1 (len / 4)) in
      let l = List.filteri (fun j _ -> j < i || j >= i + k) sched in
      (l, keep_steps l)
  | 4 -> (sched, max len steps + 32 + Prng.int rng 96)
  | _ ->
      let voc = vocab graph in
      let i = Prng.int rng (len + 1) in
      let tok = Prng.choose rng voc in
      let l =
        if i >= len then sched @ [ tok ]
        else List.concat (List.mapi (fun j x -> if j = i then [ tok; x ] else [ x ]) sched)
      in
      (l, keep_steps l)

let flip_variant (cfg : config) =
  {
    cfg with
    variant = (match cfg.variant with `Default -> `Suppressed | `Suppressed -> `Default);
  }

let cycle_init (cfg : config) =
  {
    cfg with
    init =
      (match cfg.init with
      | `Clean -> `Legitimate
      | `Legitimate -> `Random
      | `Random -> `Clean);
  }

(* A fresh graph invalidates everything that referenced the old one: the
   plan's events target the old edges, so a plan-carrying configuration
   gets a plan redrawn for the new topology. *)
let fresh_graph ~max_n rng (cfg : config) =
  let g = gen_graph ~max_n rng in
  let plan = if Fault.is_empty cfg.plan then Fault.empty else gen_plan g rng in
  { cfg with graph = g; plan }

let mutate_config ~max_n rng (cfg : config) =
  if Fault.is_empty cfg.plan then
    match Prng.int rng 8 with
    | 0 -> flip_variant cfg
    | 1 -> cycle_init cfg
    | 2 -> { cfg with engine_seed = Prng.int rng 1_000_000 }
    | 3 -> draw_engine rng cfg
    | 4 -> { cfg with plan = gen_plan cfg.graph rng; double_corrupt = false }
    | 5 -> { cfg with double_corrupt = not cfg.double_corrupt }
    | _ -> fresh_graph ~max_n rng cfg
  else
    (* Plan-carrying parents: most energy goes to the plan itself — a
       full redraw escapes dud plans, window shifts slide a tampering
       window onto (or off) the convergence transient, sharpening turns a
       plan into a stop-check stress test.  The engine seed redraws too:
       a race is a (plan, seed) coincidence, and a parent that converged
       cleanly has already proven its own pair harmless. *)
    match Prng.int rng 10 with
    | 0 -> (
        match Prng.int rng 3 with
        | 0 -> flip_variant cfg
        | 1 -> cycle_init cfg
        | _ -> draw_engine rng cfg)
    | 1 | 2 -> { cfg with engine_seed = Prng.int rng 1_000_000 }
    | 3 | 4 -> { cfg with plan = gen_plan cfg.graph rng; engine_seed = Prng.int rng 1_000_000 }
    | 5 ->
        let evs = cfg.plan.Fault.events in
        let i = Prng.int rng (List.length evs) in
        {
          cfg with
          plan = { cfg.plan with Fault.events = List.filteri (fun j _ -> j <> i) evs };
        }
    | 6 ->
        let d = Prng.int_in rng (-48) 48 in
        {
          cfg with
          plan =
            { cfg.plan with Fault.events = List.map (shift_event d) cfg.plan.Fault.events };
        }
    | 7 | 8 ->
        {
          cfg with
          plan = sharpen_plan rng cfg.plan;
          engine_seed = Prng.int rng 1_000_000;
        }
    | _ -> fresh_graph ~max_n rng cfg

let mutate_cfg_entry ~max_n rng (e : entry) =
  let cfg = mutate_config ~max_n rng e.config in
  let cfg = if scheduled cfg.plan then { cfg with domains = 1 } else cfg in
  if cfg.graph != e.config.graph then { config = cfg; sched = []; steps = 0 }
  else { e with config = cfg }

(* A synchronous entry's schedule is the policy's, so only its
   configuration is worth mutating. *)
let mutate_entry ~max_n rng (e : entry) =
  let sched_share = if Fault.is_empty e.config.plan then 7 else 4 in
  if e.config.daemon = `Async && Prng.int rng 10 < sched_share && e.sched <> [] then begin
    let sched, steps = mutate_sched rng e.config.graph e.sched e.steps in
    { e with sched; steps }
  end
  else mutate_cfg_entry ~max_n rng e

(* The uniform baseline: a fresh random configuration and a pure random
   schedule (empty preference list) every execution.  Kind mix: 1/10
   decoupling, 3/10 adversity, 6/10 lockstep — the same mix the sweep
   uses, so the comparison measures feedback, not configuration reach. *)
let gen_random_entry ~max_n rng =
  let graph = gen_graph ~max_n rng in
  let variant = if Prng.bool rng then `Default else `Suppressed in
  let init = match Prng.int rng 3 with 0 -> `Clean | 1 -> `Legitimate | _ -> `Random in
  let kind = Prng.int rng 10 in
  let dc = kind = 0 in
  let plan = if (not dc) && kind < 4 then gen_plan graph rng else Fault.empty in
  {
    config =
      draw_engine rng
        {
          variant;
          init;
          graph;
          engine_seed = Prng.int rng 1_000_000;
          plan;
          double_corrupt = dc;
          domains = 1;
          daemon = `Async;
        };
    sched = [];
    steps = 0;
  }

(* Entries sharing a configuration line are crossover-compatible. *)
let config_key (e : entry) = entry_to_string { e with sched = []; steps = 0 }

let crossover rng (a : entry) (b : entry) =
  let xa = Array.of_list a.sched and xb = Array.of_list b.sched in
  if Array.length xa = 0 || Array.length xb = 0 then a
  else begin
    let i = Prng.int rng (Array.length xa + 1) in
    let j = Prng.int rng (Array.length xb + 1) in
    let sched =
      Array.to_list (Array.sub xa 0 i)
      @ Array.to_list (Array.sub xb j (Array.length xb - j))
    in
    let sched = if sched = [] then a.sched else sched in
    { a with sched; steps = max (List.length sched) a.steps }
  end

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let save_case dir name line =
  ensure_dir dir;
  let oc = open_out (Filename.concat dir name) in
  output_string oc line;
  output_char oc '\n';
  close_out oc

let load_corpus dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun f ->
           let trophy = String.length f >= 7 && String.sub f 0 7 = "trophy-" in
           if Filename.check_suffix f ".case" && not trophy then begin
             let ic = open_in (Filename.concat dir f) in
             let line = try input_line ic with End_of_file -> "" in
             close_in ic;
             try Some (entry_of_string line) with _ -> None
           end
           else None)

let campaign ?(mode = (`Fuzz : mode)) ?(quick = false) ?(budget_s = 60.)
    ?(max_execs = max_int) ?max_n ?(stop_on_trophy = false) ?(shrink_trophies = true)
    ?corpus_dir ~seed () =
  let max_n = match max_n with Some v -> v | None -> if quick then 10 else 96 in
  let rng = Prng.create seed in
  let t0 = Sys.time () in
  let fine = Hashtbl.create 4096 in
  let coarse_seen = Hashtbl.create 1024 in
  let buckets = Hashtbl.create 1024 in
  (* Per-kind sub-corpora with a weighted power schedule.  Novelty-based
     retention alone starves the rare kinds: lockstep entries produce far
     more fresh fingerprints per execution, so a flat corpus drifts to
     ~all-lockstep and adversity/decoupling configurations stop receiving
     mutation energy — exactly the entries that detect stop-predicate and
     stream-coupling bugs. *)
  let lock_c = ref [] and lock_n = ref 0 in
  let adv_c = ref [] and adv_n = ref 0 in
  let dc_c = ref [] and dc_n = ref 0 in
  let sub_of (e : entry) =
    if e.config.double_corrupt then (dc_c, dc_n)
    else if not (Fault.is_empty e.config.plan) then (adv_c, adv_n)
    else (lock_c, lock_n)
  in
  let ncorpus = ref 0 and saved = ref 0 in
  let burst_q = ref [] and burst_n = ref 0 in
  let trophies = ref [] and ntrophies = ref 0 in
  let timeline = ref [] in
  let execs = ref 0 in
  let queue =
    ref
      (match mode with
      | `Random_walk -> []
      | `Fuzz ->
          (match corpus_dir with Some d -> load_corpus d | None -> [])
          @ sweep_entries ~max_n rng)
  in
  let pick_parent () =
    (* Energy split: lockstep 6, adversity 3, decoupling 1 — among the
       kinds that have corpus entries.  Within a kind: half the picks go
       to the 16 most recent entries, half uniform.  Lockstep gets the
       lion's share because divergence bugs need many deep schedules;
       adversity rides mostly on the gap-burst feedback below. *)
    let pools =
      List.filter
        (fun (_, _, cnt) -> !cnt > 0)
        [ (6, lock_c, lock_n); (3, adv_c, adv_n); (1, dc_c, dc_n) ]
    in
    let total = List.fold_left (fun acc (w, _, _) -> acc + w) 0 pools in
    let roll = Prng.int rng total in
    let rec go acc = function
      | [ (_, c, cnt) ] -> (c, cnt)
      | (w, c, cnt) :: rest -> if roll < acc + w then (c, cnt) else go (acc + w) rest
      | [] -> assert false
    in
    let c, cnt = go 0 pools in
    let recent = min 16 !cnt in
    if Prng.bool rng then List.nth !c (Prng.int rng recent)
    else List.nth !c (Prng.int rng !cnt)
  in
  let next_entry () =
    match mode with
    | `Random_walk -> gen_random_entry ~max_n rng
    | `Fuzz -> (
        match !queue with
        | e :: rest ->
            queue := rest;
            e
        | [] when !burst_q <> [] && Prng.int rng 3 = 0 -> (
            (* Burst entries preempt only 1 pick in 3: a gap-burst chain
               must sharpen the adversity search without starving the
               lockstep share that divergence bugs need. *)
            match !burst_q with
            | e :: rest ->
                burst_q := rest;
                decr burst_n;
                e
            | [] -> assert false)
        | [] ->
            (* 1-in-4 fresh draws: corpus parents are proven-clean for
               their exact trajectory, so pure mutation under-explores
               configurations — fresh entries keep the blind-spot search
               alive alongside the guided one. *)
            if !ncorpus = 0 || Prng.int rng 4 = 0 then gen_random_entry ~max_n rng
            else begin
              let parent = pick_parent () in
              if parent.config.daemon = `Async && Prng.int rng 10 = 0 then begin
                let pool, _ = sub_of parent in
                let key = config_key parent in
                match
                  List.filter (fun e -> e != parent && config_key e = key) !pool
                with
                | [] -> mutate_entry ~max_n rng parent
                | mates -> crossover rng parent (List.nth mates (Prng.int rng (List.length mates)))
              end
              else mutate_entry ~max_n rng parent
            end)
  in
  let retain e =
    let pool, cnt = sub_of e in
    pool := e :: !pool;
    incr cnt;
    incr ncorpus;
    match corpus_dir with
    | None -> ()
    | Some d ->
        incr saved;
        save_case d (Printf.sprintf "s%d-%06d.case" seed !saved) (entry_to_string e)
  in
  let keep_trophy t =
    trophies := t :: !trophies;
    incr ntrophies;
    match corpus_dir with
    | None -> ()
    | Some d ->
        save_case d
          (Printf.sprintf "trophy-s%d-%d.case" seed !ntrophies)
          (entry_to_string t.t_entry);
        save_case d
          (Printf.sprintf "trophy-s%d-%d.info" seed !ntrophies)
          (Printf.sprintf "%s: %s" (kind_to_string t.t_kind) t.t_detail)
  in
  let continue_ () =
    !execs < max_execs
    && Sys.time () -. t0 < budget_s
    && not (stop_on_trophy && !trophies <> [])
  in
  while continue_ () do
    let e = next_entry () in
    incr execs;
    let erng = Prng.split rng in
    let (x_fail, executed, fps), census =
      try
        let out, census =
          Mutation.with_coverage (fun () -> execute ~strict:false ~rng:erng e)
        in
        ((out.x_fail, out.x_executed, out.x_fps), census)
      with exn -> ((Some (Crash, Printexc.to_string exn), [], []), [])
    in
    let interesting = ref false in
    let note tbl k =
      if not (Hashtbl.mem tbl k) then begin
        Hashtbl.add tbl k ();
        interesting := true
      end
    in
    List.iter
      (fun (f, c) ->
        note fine f;
        note coarse_seen c)
      fps;
    List.iter (fun (p, hits) -> note buckets (p, bucketize hits)) census;
    (match x_fail with
    | Some (k, d) ->
        let t_entry =
          if executed = [] then e
          else { e with sched = executed; steps = List.length executed }
        in
        let t = { t_kind = k; t_entry; t_detail = d } in
        keep_trophy (if shrink_trophies then shrink_trophy ~max_attempts:120 t else t)
    | None ->
        if mode = `Fuzz then begin
          let kept =
            if executed = [] then e
            else { e with sched = executed; steps = List.length executed }
          in
          if !interesting then retain kept;
          (* Novelty feedback beyond retention: an adversity run whose
             convergence check fired within 4 rounds of the last fault
             came close to a stop-check race.  Burst-schedule config
             mutations of it (plan sharpen / redraw, seed redraw) ahead
             of the regular power schedule. *)
          if
            List.exists (fun (p, _) -> p = "fuzz:adv-gap-0") census
            && !burst_n < 12
          then
            for _ = 1 to 3 do
              burst_q := mutate_cfg_entry ~max_n rng kept :: !burst_q;
              incr burst_n
            done
        end);
    if !execs land 15 = 0 then timeline := (!execs, Hashtbl.length fine) :: !timeline
  done;
  timeline := (!execs, Hashtbl.length fine) :: !timeline;
  {
    s_mode = mode;
    s_execs = !execs;
    s_corpus = !ncorpus;
    s_fine = Hashtbl.length fine;
    s_coarse = Hashtbl.length coarse_seen;
    s_buckets = Hashtbl.length buckets;
    s_trophies = !trophies;
    s_elapsed = Sys.time () -. t0;
    s_timeline = List.rev !timeline;
  }

(* ---------------- mutation-detection benchmark ---------------- *)

type detection = {
  d_mutant : string;
  d_fuzz : int option array;
  d_random : int option array;
}

let detect ?(seeds = 5) ?(max_execs = 2000) ?(budget_s = 120.) mutant =
  if not (List.mem mutant Mutation.names) then
    fail "Fuzz.detect: unknown mutant %S" mutant;
  let base = Prng.seed_of_string mutant land 0xFFFFFF in
  let arm mode =
    Array.init seeds (fun i ->
        Mutation.force (Some [ mutant ]);
        Fun.protect
          ~finally:(fun () -> Mutation.force None)
          (fun () ->
            let s =
              campaign ~mode ~quick:true ~budget_s ~max_execs ~stop_on_trophy:true
                ~shrink_trophies:false
                ~seed:(base + (7919 * i))
                ()
            in
            if s.s_trophies <> [] then Some s.s_execs else None))
  in
  { d_mutant = mutant; d_fuzz = arm `Fuzz; d_random = arm `Random_walk }

let median_execs results ~max_execs =
  let vals =
    Array.map (function Some v -> v | None -> max_execs + 1) results
  in
  Array.sort compare vals;
  vals.(Array.length vals / 2)

let downsample ~keep l =
  let arr = Array.of_list l in
  let len = Array.length arr in
  if len <= keep then l else List.init keep (fun i -> arr.(i * len / keep))

let bench_json ?(quick = false) ?seeds ?max_execs ?budget_s ~seed () =
  let seeds = match seeds with Some v -> v | None -> if quick then 2 else 5 in
  let max_execs = match max_execs with Some v -> v | None -> if quick then 300 else 2000 in
  let budget_s = match budget_s with Some v -> v | None -> if quick then 10. else 120. in
  let cam_budget = if quick then 5. else 20. in
  let cam_execs = if quick then 150 else 800 in
  let cam mode =
    campaign ~mode ~quick:true ~budget_s:cam_budget ~max_execs:cam_execs
      ~shrink_trophies:false ~seed ()
  in
  let fuzz = cam `Fuzz and random = cam `Random_walk in
  let stats_json s =
    let timeline =
      downsample ~keep:40 s.s_timeline
      |> List.map (fun (x, f) -> Printf.sprintf "[%d,%d]" x f)
      |> String.concat ","
    in
    Printf.sprintf
      {|{"execs":%d,"corpus":%d,"fine_fps":%d,"coarse_fps":%d,"probe_buckets":%d,"trophies":%d,"elapsed_s":%.3f,"execs_per_s":%.1f,"timeline":[%s]}|}
      s.s_execs s.s_corpus s.s_fine s.s_coarse s.s_buckets
      (List.length s.s_trophies) s.s_elapsed
      (float_of_int s.s_execs /. Float.max s.s_elapsed 1e-9)
      timeline
  in
  let detections = List.map (fun m -> detect ~seeds ~max_execs ~budget_s m) Mutation.names in
  let opt = function Some v -> string_of_int v | None -> "null" in
  let arr a = "[" ^ String.concat "," (Array.to_list (Array.map opt a)) ^ "]" in
  let row d =
    let fm = median_execs d.d_fuzz ~max_execs and rm = median_execs d.d_random ~max_execs in
    let beats = Array.for_all (fun x -> x <> None) d.d_fuzz && fm < rm in
    ( beats,
      Printf.sprintf
        {|{"mutant":"%s","fuzz_execs":%s,"fuzz_median":%d,"random_execs":%s,"random_median":%d,"fuzz_beats_random":%b}|}
        d.d_mutant (arr d.d_fuzz) fm (arr d.d_random) rm beats )
  in
  let rows = List.map row detections in
  let all_beaten = List.for_all fst rows in
  let json =
    Printf.sprintf
      {|{"schema":"mdst-bench-fuzz/1","quick":%b,"seeds":%d,"max_execs":%d,"campaign":{"fuzz":%s,"random":%s},"detection":[%s],"all_mutants_beaten":%b}|}
      quick seeds max_execs (stats_json fuzz) (stats_json random)
      (String.concat "," (List.map snd rows))
      all_beaten
  in
  (json, all_beaten)
