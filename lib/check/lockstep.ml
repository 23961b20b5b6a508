(* The engine-vs-model lockstep driver.  See lockstep.mli. *)

module Graph = Mdst_graph.Graph
module Model = Mdst_model.Model
module Node = Mdst_sim.Node
module State = Mdst_core.State
module Msg = Mdst_core.Msg
module Projection = Mdst_core.Projection
module Checker = Mdst_core.Checker
module Prng = Mdst_util.Prng

type chooser = Engine_order | Sync | Pick of (Model.event array -> int)

let uniform rng options = Prng.int rng (Array.length options)

let strict sched =
  let step = ref 0 in
  fun options ->
    let i = !step in
    incr step;
    if i >= Array.length sched then
      failwith (Printf.sprintf "Lockstep.strict: step %d: schedule exhausted" i);
    match Array.find_index (( = ) sched.(i)) options with
    | Some k -> k
    | None ->
        failwith
          (Printf.sprintf
             "Lockstep.strict: step %d: scheduled event %s is not eligible (tick not \
              armed, or channel empty or purged)"
             i (Model.event_to_string sched.(i)))

let prefer ~fallback sched =
  let cursor = ref 0 in
  fun options ->
    let rec scan j =
      if j >= Array.length sched then Prng.int fallback (Array.length options)
      else
        match Array.find_index (( = ) sched.(j)) options with
        | None -> scan (j + 1)
        | Some k ->
            cursor := j + 1;
            k
    in
    scan !cursor

type kind = Divergence | Closure

type failure = { kind : kind; index : int; event : string; detail : string }

let describe f = Printf.sprintf "event %d (%s): %s" f.index f.event f.detail

type result = {
  events_run : int;
  executed : Model.event list;
  states : State.t array;
  failure : failure option;
}

let msg_str m = Format.asprintf "%a" Msg.pp m

let state_detail (real : State.t array) (model : State.t array) =
  let rp = Projection.of_states real and mp = Projection.of_states model in
  if not (Projection.equal rp mp) then
    "projection: "
    ^ String.concat "; "
        (List.map
           (fun (v, field) -> Printf.sprintf "node %d: %s" v field)
           (Projection.diff rp mp))
  else
    Printf.sprintf "internal divergence: node %d state differs (projection equal)"
      (Option.get (Array.find_index Fun.id (Array.map2 ( <> ) real model)))

module Default_params = struct let params = Model.default end

module Suppressed_params = struct let params = Model.suppressed end

module Make (A : Mdst_sim.Node.AUTOMATON
               with type state = Mdst_core.State.t
                and type msg = Mdst_core.Msg.t) (P : sig
  val params : Model.params
end) =
struct
  (* The automaton, leaking which event each engine step ran (and the
     delivered payload); an engine step runs exactly one handler. *)
  module T = struct
    include A

    let taken : (Model.event * Msg.t option) option ref = ref None

    let on_tick ctx st =
      taken := Some (Model.Tick ctx.Node.node, None);
      A.on_tick ctx st

    let on_message ctx st ~src msg =
      taken := Some (Model.Deliver { src; dst = ctx.Node.node }, Some msg);
      A.on_message ctx st ~src msg
  end

  module E = Mdst_sim.Pengine.Make (T)

  let event_of_choice = function
    | E.Choose_tick { node } -> Model.Tick node
    | E.Choose_deliver { src; dst; _ } -> Model.Deliver { src; dst }

  let step engine = function
    | Engine_order -> ignore (E.step engine)
    | Sync -> ignore (E.step_sync engine)
    | Pick pick ->
        ignore
          (E.step_with engine ~choose:(fun options -> pick (Array.map event_of_choice options)))

  let run ?states ?premise ?(observe = ignore) ?domains ~seed ~init ~events chooser graph =
    let engine = E.create ~seed ~init:(init :> E.init) ?domains graph in
    Option.iter (Array.iteri (E.set_state engine)) states;
    T.taken := None;
    let seed_model () =
      Model.make ~params:P.params ~states:(E.states engine) ~in_flight:(E.in_flight engine)
        graph
    in
    let model = ref (seed_model ()) in
    let failure = ref None and executed = ref [] in
    let fail kind index event detail = failure := Some { kind; index; event; detail } in
    let premise_held = ref false in
    let i = ref 0 in
    while !i < events && !failure = None do
      incr i;
      step engine chooser;
      let taken = !T.taken in
      T.taken := None;
      match taken with
      | None -> fail Divergence !i "?" "engine step ran no handler"
      | Some (ev, delivered) -> (
          executed := ev :: !executed;
          let fail_at kind detail = fail kind !i (Model.event_to_string ev) detail in
          match (ev, delivered) with
          | Model.Deliver { src; dst }, Some msg
            when Model.peek !model ~src ~dst <> Some msg ->
              fail_at Divergence
                (Printf.sprintf
                   "channel-head mismatch on %d->%d: engine delivered %s, model head %s"
                   src dst (msg_str msg)
                   (match Model.peek !model ~src ~dst with
                   | None -> "(empty)"
                   | Some m -> msg_str m))
          | _ -> (
              model := Model.step !model ev;
              let real = E.states engine and nodes = !model.Model.nodes in
              if real <> nodes then fail_at Divergence (state_detail real nodes)
              else begin
                observe real;
                match premise with
                | None -> ()
                | Some premise ->
                    let legit = Checker.legitimate graph nodes in
                    if !premise_held && not legit then
                      fail_at Closure
                        "a configuration satisfying the closure premise stepped to an \
                         illegitimate one"
                    else
                      premise_held :=
                        legit && (!i - 1) land 3 = 0
                        && premise graph nodes !model.Model.channels
              end))
    done;
    (if !failure = None then
       (* The engine's queues laid out per channel the way the model was
          seeded. *)
       let n = Graph.n graph and mchans = !model.Model.channels in
       let chans = (seed_model ()).Model.channels in
       match Array.find_index Fun.id (Array.map2 ( <> ) chans mchans) with
       | None -> ()
       | Some k ->
           let show l = "[" ^ String.concat ", " (List.map msg_str l) ^ "]" in
           fail Divergence !i "(end)"
             (Printf.sprintf "in-flight mismatch on %d->%d: engine %s, model %s" (k / n)
                (k mod n) (show chans.(k)) (show mchans.(k))));
    {
      events_run = !i;
      executed = List.rev !executed;
      states = Array.copy (E.states engine);
      failure = !failure;
    }
end
