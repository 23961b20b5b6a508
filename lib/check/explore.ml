(* Bounded schedule exploration.  See explore.mli for the statement.

   The DFS carries one canonical configuration (the model's) and, for every
   transition, steps it twice: once through the real protocol handlers
   (driven directly, with hand-built contexts — the handlers are
   deterministic and never touch ctx.rng / ctx.now, which the conformance
   property verifies continuously) and once through the reference model.
   Equal results let the search continue on either; unequal results are a
   conformance violation with the full event path as reproducer. *)

module Graph = Mdst_graph.Graph
module Tree = Mdst_graph.Tree
module Model = Mdst_model.Model
module Node = Mdst_sim.Node
module State = Mdst_core.State
module Msg = Mdst_core.Msg
module Checker = Mdst_core.Checker
module Projection = Mdst_core.Projection
module Fr = Mdst_baseline.Fr
module Prng = Mdst_util.Prng

type init = [ `Clean | `Random of int | `Legitimate ]

type stats = {
  configs : int;
  transitions : int;
  max_depth_reached : int;
  truncated : bool;
}

type kind = Conformance_divergence | Closure_violation

type violation = { kind : kind; path : string; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "%s after [%s]: %s"
    (match v.kind with
    | Conformance_divergence -> "conformance divergence"
    | Closure_violation -> "closure violation")
    v.path v.detail

module type S = sig
  val dfs :
    ?max_depth:int ->
    ?max_configs:int ->
    init:init ->
    Graph.t ->
    stats * violation option

  val walk :
    ?steps:int ->
    seed:int ->
    init:[ `Clean | `Random ] ->
    Graph.t ->
    (int, string) result
end

(* ---------------- shared premise machinery ---------------- *)

let current_info ctxs states v =
  let st = states.(v) in
  {
    Msg.i_root = st.State.root;
    i_parent = st.State.parent;
    i_dist = st.State.dist;
    i_deg = State.tree_degree ctxs.(v) st;
    i_dmax = st.State.dmax;
    i_color = st.State.color;
    i_subtree_max = st.State.subtree_max;
  }

let views_accurate ctxs states =
  let ok = ref true in
  Array.iteri
    (fun v st ->
      Array.iteri
        (fun s w ->
          let vw = st.State.views.(s) in
          let stw = states.(w) in
          if
            not
              (vw.State.w_fresh && vw.State.w_root = stw.State.root
              && vw.State.w_parent = stw.State.parent
              && vw.State.w_dist = stw.State.dist
              && vw.State.w_deg = State.tree_degree ctxs.(w) stw
              && vw.State.w_dmax = stw.State.dmax
              && vw.State.w_color = stw.State.color
              && vw.State.w_subtree_max = stw.State.subtree_max)
          then ok := false)
        ctxs.(v).Node.neighbors)
    states;
  !ok

(* A message is premise-compatible when delivering it (now or later) cannot
   feed a node data that disagrees with the network's current truth:
   an Info that is exactly the sender's current public variables, a Search
   whose every stack entry matches its node's current degree and distance,
   or a Deblock (a pure request to search).  Everything else — mid-swap
   traffic, distance repair, stale gossip — falsifies the premise. *)
let message_ok ctxs graph states src msg =
  match msg with
  | Msg.Info i -> i = current_info ctxs states src
  | Msg.Search { s_stack; _ } ->
      List.for_all
        (fun e ->
          match Graph.index_of_id graph e.Msg.e_id with
          | exception Not_found -> false
          | w ->
              e.Msg.e_deg = State.tree_degree ctxs.(w) states.(w)
              && e.Msg.e_dist = states.(w).State.dist)
        s_stack
  | Msg.Deblock _ -> true
  | Msg.Swap_req _ | Msg.Remove _ | Msg.Grant _ | Msg.Reverse _
  | Msg.Update_dist _ ->
      false

(* The legitimacy-closure premise: from here, every enabled event must lead
   to a legitimate configuration.  [not (Fr.improvable tree)] is the paper's
   fixpoint condition — while an improvement exists the protocol rightly
   commits a swap, transiting through configurations whose dmax bookkeeping
   lags the tree. *)
let premise_with ctxs graph nodes channels =
  Checker.legitimate graph nodes
  && Array.for_all (fun st -> st.State.pending = None) nodes
  && views_accurate ctxs nodes
  && (let ok = ref true in
      let n = Graph.n graph in
      Array.iteri
        (fun k l ->
          let src = k / n in
          List.iter
            (fun m -> if not (message_ok ctxs graph nodes src m) then ok := false)
            l)
        channels;
      !ok)
  &&
  match Checker.tree_of_states graph nodes with
  | None -> false
  | Some tree -> not (Fr.improvable tree)

(* ---------------- initial configurations ---------------- *)

let legitimate_with ctxs graph =
  let tree = Fr.approx_mdst ~root:(Graph.min_id_node graph) graph in
  let dmax = Tree.max_degree tree in
  let root = Tree.root tree in
  let root_id = Graph.id graph root in
  let n = Graph.n graph in
  let stm = Array.make n 0 in
  let rec fill v =
    let m = ref (Tree.degree tree v) in
    List.iter
      (fun c ->
        fill c;
        if stm.(c) > !m then m := stm.(c))
      (Tree.children tree v);
    stm.(v) <- !m
  in
  fill root;
  let parent_id v = Graph.id graph (if v = root then v else Tree.parent tree v) in
  Array.init n (fun v ->
      let views =
        Array.map
          (fun w ->
            {
              State.w_root = root_id;
              w_parent = parent_id w;
              w_dist = Tree.depth tree w;
              w_deg = Tree.degree tree w;
              w_dmax = dmax;
              w_color = false;
              w_subtree_max = stm.(w);
              w_fresh = true;
            })
          ctxs.(v).Node.neighbors
      in
      {
        State.root = root_id;
        parent = parent_id v;
        dist = Tree.depth tree v;
        dmax;
        color = false;
        subtree_max = stm.(v);
        views;
        pending = None;
        deblock = None;
        search_cursor = 0;
        search_quiet = 0;
        last_info = None;
        info_age = 0;
      })

(* Hand-built contexts for driving handlers outside the engine; [send]
   receives [(src, dst, msg)].  The premise and the legitimate builder only
   read the topology fields (neighbors / ids / n), so the graph-only
   wrappers below build a no-op-send array per call — O(n·δ) setup, noise
   next to the checks themselves. *)
let contexts ?(send = fun _ _ _ -> ()) graph =
  let n = Graph.n graph in
  Array.init n (fun v ->
      let nbrs = Array.copy (Graph.neighbors graph v) in
      {
        Node.node = v;
        id = Graph.id graph v;
        n;
        neighbors = nbrs;
        neighbor_ids = Array.map (Graph.id graph) nbrs;
        send = send v;
        note_suppressed = (fun _ -> ());
        rng = Prng.create 0;
        now = (fun () -> 0.0);
      })

let legitimate_states graph = legitimate_with (contexts graph) graph

let premise graph nodes channels = premise_with (contexts graph) graph nodes channels

(* ---------------- the explorer ---------------- *)

module Make (A : Mdst_sim.Node.AUTOMATON
               with type state = Mdst_core.State.t
                and type msg = Mdst_core.Msg.t) (P : sig
  val params : Model.params
end) =
struct
  let initial ctxs ~init graph =
    let n = Graph.n graph in
    let nodes, channels =
      match init with
      | `Clean -> (Array.init n (fun v -> A.init ctxs.(v)), Array.make (n * n) [])
      | `Legitimate -> (legitimate_with ctxs graph, Array.make (n * n) [])
      | `Random seed ->
          let rng = Prng.create seed in
          let nodes = Array.init n (fun v -> A.random_state ctxs.(v) (Prng.split rng)) in
          let channels = Array.make (n * n) [] in
          for u = 0 to n - 1 do
            Array.iter
              (fun v ->
                let k = Prng.int rng 3 in
                channels.((u * n) + v) <-
                  List.filter_map
                    (fun _ -> A.random_msg ctxs.(u) (Prng.split rng))
                    (List.init k Fun.id))
              (Graph.neighbors graph u)
          done;
          (nodes, channels)
    in
    { Model.graph; params = P.params; nodes; channels }

  (* The same event through the real handlers. *)
  let real_step ctxs outbox n (m : Model.config) ev =
    outbox := [];
    let nodes = Array.copy m.Model.nodes in
    let channels = Array.copy m.Model.channels in
    (match ev with
    | Model.Tick v -> nodes.(v) <- A.on_tick ctxs.(v) nodes.(v)
    | Model.Deliver { src; dst } -> (
        let k = (src * n) + dst in
        match channels.(k) with
        | [] -> invalid_arg "Explore.real_step: empty channel"
        | msg :: rest ->
            channels.(k) <- rest;
            nodes.(dst) <- A.on_message ctxs.(dst) nodes.(dst) ~src msg));
    List.iter
      (fun (sender, dst, msg) ->
        let k = (sender * n) + dst in
        channels.(k) <- channels.(k) @ [ msg ])
      (List.rev !outbox);
    (nodes, channels)

  let mismatch_detail n (rn, rc) (m' : Model.config) =
    let v = ref (-1) in
    Array.iteri (fun i s -> if !v < 0 && s <> m'.Model.nodes.(i) then v := i) rn;
    if !v >= 0 then
      Printf.sprintf "node %d: real handlers and model disagree" !v
    else begin
      let k = ref (-1) in
      Array.iteri (fun i l -> if !k < 0 && l <> m'.Model.channels.(i) then k := i) rc;
      if !k >= 0 then
        Printf.sprintf "channel %d->%d: real handlers and model disagree" (!k / n)
          (!k mod n)
      else "no difference located (internal error)"
    end

  let enabled n (m : Model.config) =
    let delivers = ref [] in
    Array.iteri
      (fun k l ->
        if l <> [] then
          delivers := Model.Deliver { src = k / n; dst = k mod n } :: !delivers)
      m.Model.channels;
    List.rev !delivers @ List.init n (fun v -> Model.Tick v)

  let dfs ?(max_depth = 10) ?(max_configs = 20_000) ~init graph =
    let n = Graph.n graph in
    let outbox = ref [] in
    let ctxs = contexts ~send:(fun v dst msg -> outbox := (v, dst, msg) :: !outbox) graph in
    let m0 = initial ctxs ~init graph in
    let visited : (int, (State.t array * Msg.t list array) list) Hashtbl.t =
      Hashtbl.create 1024
    in
    let configs = ref 0
    and transitions = ref 0
    and max_depth_reached = ref 0
    and truncated = ref false
    and violation = ref None in
    let seen (m : Model.config) =
      (* The quiescence fingerprint alone is a terrible key here: every
         configuration reachable from a legitimate one shares it, collapsing
         the table into one bucket.  Folding in a deep generic hash of the
         full configuration keeps buckets short; the bucket's full
         structural comparison is what makes the visited set sound either
         way. *)
      let fp =
        Projection.fingerprint_states m.Model.nodes
        lxor Hashtbl.hash_param 500 4000 (m.Model.nodes, m.Model.channels)
      in
      let bucket = try Hashtbl.find visited fp with Not_found -> [] in
      if
        List.exists
          (fun (s, c) -> s = m.Model.nodes && c = m.Model.channels)
          bucket
      then true
      else begin
        Hashtbl.replace visited fp ((m.Model.nodes, m.Model.channels) :: bucket);
        false
      end
    in
    let rec expand m depth path =
      if !violation <> None || seen m then ()
      else if !configs >= max_configs then truncated := true
      else begin
        incr configs;
        if depth > !max_depth_reached then max_depth_reached := depth;
        if depth >= max_depth then truncated := true
        else
          let prem = premise_with ctxs graph m.Model.nodes m.Model.channels in
          List.iter
            (fun ev ->
              if !violation = None then begin
                incr transitions;
                let m' = Model.step m ev in
                let (rn, rc) = real_step ctxs outbox n m ev in
                let path' = List.rev (Model.event_to_string ev :: path) in
                if not (rn = m'.Model.nodes && rc = m'.Model.channels) then
                  violation :=
                    Some
                      {
                        kind = Conformance_divergence;
                        path = String.concat "," path';
                        detail = mismatch_detail n (rn, rc) m';
                      }
                else if prem && not (Checker.legitimate graph m'.Model.nodes)
                then
                  violation :=
                    Some
                      {
                        kind = Closure_violation;
                        path = String.concat "," path';
                        detail =
                          "legitimate configuration stepped to an illegitimate one";
                      }
                else expand m' (depth + 1) (Model.event_to_string ev :: path)
              end)
            (enabled n m)
      end
    in
    expand m0 0 [];
    ( {
        configs = !configs;
        transitions = !transitions;
        max_depth_reached = !max_depth_reached;
        truncated = !truncated;
      },
      !violation )

  (* ---------------- random lockstep walk ---------------- *)

  module L = Lockstep.Make (A) (P)

  let walk ?(steps = 500) ~seed ~init graph =
    let rng = Prng.create (seed lxor 0x9e3f) in
    let r = L.run ~seed ~init ~events:steps (Lockstep.Pick (Lockstep.uniform rng)) graph in
    match r.Lockstep.failure with
    | None -> Ok r.Lockstep.events_run
    | Some f -> Error (Lockstep.describe f)
end

module Default = Make (Mdst_core.Proto.Default) (Lockstep.Default_params)

module Suppressed = Make (Mdst_core.Proto.Suppressed) (Lockstep.Suppressed_params)
