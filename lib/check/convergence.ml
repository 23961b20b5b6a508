(* The paper's self-stabilization claim as a property over (graph, fault
   plan, seed) cases.  See convergence.mli for the statement. *)

module Graph = Mdst_graph.Graph
module Tree = Mdst_graph.Tree
module Fault = Mdst_sim.Fault
module Run = Mdst_core.Run
module Checker = Mdst_core.Checker
module Fr = Mdst_baseline.Fr

type case = { graph : Graph.t; plan : Fault.plan; seed : int }

(* ---------------- reproducer format ---------------- *)

let case_to_string c =
  String.concat ";" (Repro.common c.graph ~seed:c.seed @ [ "plan=" ^ Fault.to_string c.plan ])

let case_of_string s =
  let f = Repro.parse ~what:"Convergence.case_of_string" ~keys:[ "plan" ] s in
  { graph = Repro.graph f; plan = Repro.plan f; seed = Repro.seed f }

(* ---------------- generation and shrinking ---------------- *)

let gen_case ?min_n ?max_n ?max_events ?horizon () rng =
  let graph = Gen.connected_graph ?min_n ?max_n () (Mdst_util.Prng.split rng) in
  let plan = Gen.fault_plan ~graph ?max_events ?horizon () (Mdst_util.Prng.split rng) in
  { graph; plan; seed = Mdst_util.Prng.int rng 1_000_000 }

let shrink_case c =
  (* Vertex deletions shrink graph and plan together; plan deletions are
     sound in isolation because per-event PRNG streams are independent. *)
  let vertices =
    Seq.filter_map
      (fun v ->
        match Shrink.remove_vertex c.graph v with
        | Some g ->
            Some { c with graph = g; plan = Shrink.remap_plan_without_vertex ~removed:v c.plan }
        | None -> None)
      (Seq.init (Graph.n c.graph) Fun.id)
  in
  let plans = Seq.map (fun plan -> { c with plan }) (Shrink.plan c.plan) in
  let edges =
    let bridges = Mdst_graph.Algo.bridges c.graph in
    Array.to_seq (Graph.edges c.graph)
    |> Seq.filter (fun e -> not (List.mem e bridges))
    |> Seq.map (fun e -> { c with graph = Shrink.remove_edge c.graph e })
  in
  Seq.append vertices (Seq.append plans edges)

(* ---------------- running one case ---------------- *)

type budget = { settle_rounds : int; per_node_rounds : int; closure_rounds : int }

let default_budget = { settle_rounds = 4000; per_node_rounds = 250; closure_rounds = 80 }

type report = {
  converged : bool;
  rounds : int;
  last_fault_round : int;
  outstanding : bool;
  degree : int option;
  fr_degree : int;
  closure_ok : bool;
  stats : Fault.stats;
}

(* Failure order: no convergence, a stop declared while the adversary
   was still at work, degree bound, then closure. *)
let verdict r =
  if not r.converged then
    Error
      (Printf.sprintf
         "no convergence: still illegitimate or improvable %d rounds after the last fault \
          (round %d; faults applied: %s)"
         (r.rounds - r.last_fault_round) r.last_fault_round
         (Format.asprintf "%a" Fault.pp_stats r.stats))
  else if r.outstanding then
    Error
      (Printf.sprintf
         "convergence declared at round %d with adversarial work still outstanding \
          (tampered message in flight or scheduled fault pending)"
         r.rounds)
  else
    match r.degree with
    | Some d when d > r.fr_degree + 1 ->
        Error
          (Printf.sprintf "degree bound violated: deg(T) = %d > deg_FR + 1 = %d" d
             (r.fr_degree + 1))
    | _ when not r.closure_ok ->
        Error "closure violated: fingerprint or legitimacy changed after convergence"
    | _ -> Ok ()

module Harness (A : Mdst_sim.Node.AUTOMATON
                  with type state = Mdst_core.State.t
                   and type msg = Mdst_core.Msg.t) =
struct
  module R = Run.Runner (A)
  module Sim = R.Sim

  let fixpoint tree = not (Fr.improvable tree)

  let run_case ?(budget = default_budget) ?(init : [ `Clean | `Random ] = `Random)
      ?(prefix = ignore) ?domains case =
    let engine = R.make_engine ~seed:case.seed ~init:(init :> Run.init) ?domains case.graph in
    Sim.install_faults engine ~remap:Mdst_core.Transplant.states case.plan;
    prefix engine;
    let last_fault_round = Fault.last_fault_round case.plan in
    let max_rounds =
      last_fault_round + budget.settle_rounds
      + (budget.per_node_rounds * Graph.n case.graph)
    in
    (* Convergence only counts after the adversary is done: the stop
       predicate is evaluated first so its fingerprint tracker never misses
       a sample, then gated strictly past the last fault round.  The
       [faults_pending] guard closes a race: a cut scheduled at round r
       fires when the engine processes an event at or past r, which can be
       after a stop check already ran at round r — victory declared then
       would push the fault into the closure window. *)
    let base_stop = R.make_stop ~fixpoint () in
    (* Mutant "stop-check-race" removes the [faults_pending] conjunct,
       reopening the race this guard closes. *)
    let stop e =
      let held = base_stop e in
      held
      && Sim.rounds e > last_fault_round
      && (Mdst_util.Mutation.enabled "stop-check-race" || not (Sim.faults_pending e))
    in
    let outcome = Sim.run engine ~max_rounds ~check_every:2 ~stop () in
    let outstanding = outcome.converged && Sim.faults_pending engine in
    let final_graph = Sim.graph engine in
    let degree = Checker.tree_degree_now final_graph (Sim.states engine) in
    let fr_degree = Tree.max_degree (Fr.approx_mdst final_graph) in
    let closure_ok =
      if outstanding || not outcome.converged then true
      else begin
        (* Closure: nothing fingerprinted may move once legitimate —
           self-stabilizing protocols keep gossiping and searching, but no
           swap may commit any more. *)
        let fp = Checker.fingerprint (Sim.states engine) in
        let _ =
          Sim.run engine
            ~max_rounds:(Sim.rounds engine + budget.closure_rounds)
            ~check_every:4
            ~stop:(fun _ -> false)
            ()
        in
        Checker.fingerprint (Sim.states engine) = fp
        && Checker.legitimate final_graph (Sim.states engine)
      end
    in
    {
      converged = outcome.converged;
      rounds = outcome.rounds;
      last_fault_round;
      outstanding;
      degree;
      fr_degree;
      closure_ok;
      stats = Sim.fault_stats engine;
    }

  let prop ?budget () case = verdict (run_case ?budget case)

  let property ?budget ?min_n ?max_n ?max_events ?horizon () =
    Property.make
      ~name:("convergence-under-adversity:" ^ A.name)
      ~gen:(gen_case ?min_n ?max_n ?max_events ?horizon ())
      ~shrink:shrink_case ~print:case_to_string
      (prop ?budget ())
end

module Default = Harness (Mdst_core.Proto.Default)

module Suppressed = Harness (Mdst_core.Proto.Suppressed)

module Broken = struct
  module Mutation = Mdst_util.Mutation

  let active () = List.filter Mutation.enabled Mutation.names

  (* Force grant-drop on top of the active mutants; afterwards revert to
     the environment, or re-force the previous set if it differed. *)
  let grant_drop f x =
    let before = active () in
    Mutation.force (Some ("grant-drop" :: before));
    Fun.protect
      ~finally:(fun () ->
        Mutation.force None;
        if active () <> before then Mutation.force (Some before))
      (fun () -> f x)

  module Sim = Default.Sim

  let run_case ?budget ?init ?prefix ?domains case =
    grant_drop (Default.run_case ?budget ?init ?prefix ?domains) case

  let prop ?budget () case = grant_drop (Default.prop ?budget ()) case

  let property ?budget ?min_n ?max_n ?max_events ?horizon () =
    let p = Default.property ?budget ?min_n ?max_n ?max_events ?horizon () in
    { p with Property.name = p.Property.name ^ "+grant-drop"; prop = prop ?budget () }
end
