module Tree = Mdst_graph.Tree

type report = {
  samples : int;
  spanning_samples : int;
  availability : float;
  longest_outage : int;
  distinct_trees : int;
  max_degree_seen : int;
  final_spanning : bool;
}

module Watch (A : Mdst_sim.Node.AUTOMATON with type state = State.t and type msg = Msg.t) =
struct
  module Sim = Mdst_sim.Pengine.Make (A)

  let watch ?(sample_every = 2) ~engine ~max_rounds ~stop () =
    let graph = Sim.graph engine in
    let samples = ref 0 in
    let spanning = ref 0 in
    let outage = ref 0 in
    let longest_outage = ref 0 in
    let max_degree_seen = ref 0 in
    let module ES = Set.Make (struct
      type t = (int * int) list

      let compare = compare
    end) in
    let trees = ref ES.empty in
    (* A node holding a swap lock means the parent pointers are mid-swap:
       the Remove/Grant/Reverse passes re-parent the segment one hop at a
       time, so the edge sets seen in that window are construction
       intermediates, not trees the protocol chose.  Counting them made
       E16/E17 over-report distinct_trees during search churn; sample tree
       identity only from swap-quiescent configurations, the same basis as
       Checker.fingerprint / Projection. *)
    let mid_swap () =
      Array.exists (fun st -> st.State.pending <> None) (Sim.states engine)
    in
    let sample () =
      incr samples;
      match Checker.tree_of_states graph (Sim.states engine) with
      | Some tree ->
          incr spanning;
          outage := 0;
          if not (mid_swap ()) then trees := ES.add (Tree.edge_list tree) !trees;
          if Tree.max_degree tree > !max_degree_seen then max_degree_seen := Tree.max_degree tree
      | None ->
          incr outage;
          if !outage > !longest_outage then longest_outage := !outage
    in
    let next_sample = ref 0 in
    let combined_stop t =
      if Sim.rounds t >= !next_sample then begin
        next_sample := Sim.rounds t + sample_every;
        sample ()
      end;
      stop t
    in
    ignore (Sim.run engine ~max_rounds ~check_every:1 ~stop:combined_stop ());
    sample ();
    {
      samples = !samples;
      spanning_samples = !spanning;
      availability =
        (if !samples = 0 then 0.0 else float_of_int !spanning /. float_of_int !samples);
      longest_outage = !longest_outage;
      distinct_trees = ES.cardinal !trees;
      max_degree_seen = !max_degree_seen;
      final_spanning = Checker.tree_of_states graph (Sim.states engine) <> None;
    }
end

module Default_watch = Watch (Proto.Default)

let watch = Default_watch.watch
