(* Lockstep conformance between the real automaton (under the engine) and
   the pure reference model.  See conformance.mli for the statement. *)

module Graph = Mdst_graph.Graph
module Model = Mdst_model.Model
module Prng = Mdst_util.Prng

type case = {
  graph : Graph.t;
  seed : int;
  init : [ `Clean | `Random ];
  events : int;
}

(* ---------------- reproducer format ---------------- *)

let case_to_string c =
  String.concat ";"
    (Repro.common c.graph ~seed:c.seed
    @ [
        "init=" ^ (match c.init with `Clean -> "clean" | `Random -> "random");
        Printf.sprintf "events=%d" c.events;
      ])

let case_of_string s =
  let f = Repro.parse ~what:"Conformance.case_of_string" ~keys:[ "init"; "events" ] s in
  {
    graph = Repro.graph f;
    seed = Repro.seed f;
    init =
      Option.value ~default:`Random
        (Repro.enum f "init" [ ("clean", `Clean); ("random", `Random) ]);
    events = Option.value ~default:100 (Repro.nat f "events");
  }

(* ---------------- generation and shrinking ---------------- *)

let gen_case ?min_n ?max_n ?(max_events = 400) () rng =
  let graph = Gen.connected_graph ?min_n ?max_n () (Prng.split rng) in
  let seed = Prng.int rng 1_000_000 in
  let init = if Gen.bool (Prng.split rng) then `Random else `Clean in
  let events = 1 + Prng.int rng max_events in
  { graph; seed; init; events }

let shrink_case c =
  (* Fewer events first: re-running a prefix is sound because the engine's
     schedule for a given (graph, seed, init) is a fixed sequence.  Then
     shrink the graph (a different graph is a different schedule, but any
     diverging case is a valid counterexample). *)
  let events =
    Seq.filter_map
      (fun e -> if e >= 1 && e < c.events then Some { c with events = e } else None)
      (Shrink.int ~towards:1 c.events)
  in
  let graphs = Seq.map (fun g -> { c with graph = g }) (Shrink.graph c.graph) in
  Seq.append events graphs

(* ---------------- the lockstep driver ---------------- *)

module type S = sig
  val run_case : case -> Lockstep.result

  val prop : case Property.prop

  val property :
    ?min_n:int -> ?max_n:int -> ?max_events:int -> unit -> case Property.t
end

module Make (A : Mdst_sim.Node.AUTOMATON
               with type state = Mdst_core.State.t
                and type msg = Mdst_core.Msg.t) (P : sig
  val params : Model.params
end) =
struct
  module L = Lockstep.Make (A) (P)

  let run_case case =
    L.run ~seed:case.seed ~init:case.init ~events:case.events Lockstep.Engine_order
      case.graph

  let prop case =
    let r = run_case case in
    match r.Lockstep.failure with
    | None -> Ok ()
    | Some d ->
        Error
          (Printf.sprintf "model divergence at event %d/%d (%s): %s" d.index
             r.events_run d.event d.detail)

  (* [A.name] is shared across config variants; tag the property with the
     one model parameter the variants differ in. *)
  let variant =
    if P.params.Model.info_suppression then "suppressed" else "default"

  let property ?min_n ?max_n ?max_events () =
    Property.make
      ~name:("model-conformance:" ^ A.name ^ ":" ^ variant)
      ~gen:(gen_case ?min_n ?max_n ?max_events ())
      ~shrink:shrink_case ~print:case_to_string prop
end

module Default = Make (Mdst_core.Proto.Default) (Lockstep.Default_params)

module Suppressed = Make (Mdst_core.Proto.Suppressed) (Lockstep.Suppressed_params)
