(* The benchmark's own checks, on cut-down instance sets of the real
   workloads: counts repeat exactly (same seed twice, traced against
   untraced, K=1 against K=2), the gate rejects an improvable tree, the
   traced self times account for the traced run time, and allocation
   counters include the sharded engine's worker domain. *)

open Perfbench

let small name instances = { (Workload.find name) with instances }

let counts_of p = Array.map (fun (o, _) -> Bench.counts o) p

let check_same_counts msg a b =
  Alcotest.(check bool) msg true (Bench.same_counts a b);
  Alcotest.(check int) (msg ^ " (instances)") (Array.length a) (Array.length b)

let repeat_same_seed () =
  List.iter
    (fun name ->
      let w = small name 3 in
      let a = Bench.pass Bench.Plain w (Bench.setup w ~seed:5) in
      let b = Bench.pass Bench.Plain w (Bench.setup w ~seed:5) in
      check_same_counts (name ^ ": two runs of seed 5") a b;
      Alcotest.(check bool) (name ^ ": counts are non-trivial") true
        (Array.for_all (fun ((rounds, _, _, events), (msgs, _, _, _), _) -> rounds > 0 && events > 0 && msgs > 0) (counts_of a)))
    [ "er-clean"; "er-recover"; "grid-sharded" ]

let traced_matches_untraced () =
  List.iter
    (fun (name, k) ->
      let w = small name k in
      let s = Bench.setup w ~seed:2 in
      check_same_counts (name ^ ": traced vs untraced") (Bench.pass Bench.Plain w s) (Bench.pass Bench.Traced_run w s))
    [ ("er-clean", 3); ("er-recover", 3); ("grid-sharded", 3) ]

let k1_matches_k2 () =
  let w = small "grid-sharded" 6 in
  let s = Bench.setup w ~seed:3 in
  check_same_counts "grid-sharded: K=1 vs K=2" (Bench.pass Bench.Plain w s) (Bench.pass (Bench.Plain_domains 1) w s)

let gate_rejects_improvable_tree () =
  let w = small "er-clean" 1 in
  let s = Bench.setup w ~seed:1 in
  let o, _ = (Bench.pass Bench.Plain w s).(0) in
  let fr = Bench.fr_degrees s in
  Alcotest.(check bool) "converged instance passes" true (Bench.instance_ok ~fr_degree:fr.(0) o);
  (* A spanning star of K_6 is legitimate-looking but FR-improvable. *)
  let k6 = Mdst_graph.Gen.complete 6 in
  let star = Mdst_graph.Tree.of_parents k6 ~root:0 (Array.make 6 0) in
  Alcotest.(check bool) "improvable tree fails" false
    (Bench.instance_ok ~fr_degree:2 { o with tree = Some star });
  Alcotest.(check bool) "unconverged run fails" false
    (Bench.instance_ok ~fr_degree:fr.(0) { o with converged = false })

let self_times_add_up () =
  List.iter
    (fun (name, k) ->
      let r = Bench.per_layer (small name k) ~seed:4 in
      Alcotest.(check bool) (name ^ ": correct") true r.correct;
      let total = List.fold_left (fun a n -> a +. Bench.value r n) 0.0 Bench.self_time_names in
      let traced = Bench.value r "trace.converge_s" in
      Alcotest.(check (float (1e-9 *. traced))) (name ^ ": self times = traced converge_s") traced total)
    [ ("er-clean", 2); ("grid-sharded", 4); ("er-recover", 2) ]

let search_families () =
  let er = Bench.per_layer (small "er-clean" 4) ~seed:6 in
  let bits f = Bench.value er (Printf.sprintf "core.proto.%s.mbits" f) in
  Array.iter
    (fun f ->
      if f <> "search" then
        Alcotest.(check bool) ("er-clean: search carries more bits than " ^ f) true (bits "search" > bits f))
    Meter.families;
  let star = Bench.per_layer (small "star-hub" 1) ~seed:6 in
  Alcotest.(check bool) "star-hub: correct, traced counts match untraced" true star.correct;
  Alcotest.(check (float 0.0)) "star-hub: no search messages" 0.0 (Bench.value star "core.proto.search.msgs");
  Alcotest.(check bool) "star-hub: info handler dominates" true
    (Bench.value star "core.proto.info.handler_s" > 0.5 *. Bench.value star "trace.converge_s")

let alloc_counts_worker_domain () =
  let words () =
    let s = Gc.quick_stat () in
    s.minor_words +. s.major_words -. s.promoted_words
  in
  let w0 = words () in
  let d = Domain.spawn (fun () -> List.length (List.init 100_000 Fun.id)) in
  ignore (Domain.join d);
  Alcotest.(check bool) "a joined domain's allocation is counted" true (words () -. w0 >= 300_000.0);
  let w = small "grid-sharded" 4 in
  let s = Bench.setup w ~seed:7 in
  let alloc p = Array.fold_left (fun a ((o : Drive.outcome), _) -> a +. o.alloc_words) 0.0 p in
  let k2 = alloc (Bench.pass Bench.Plain w s) and k1 = alloc (Bench.pass (Bench.Plain_domains 1) w s) in
  Alcotest.(check bool) (Printf.sprintf "K=2 allocation (%.0f) is not a shard short of K=1 (%.0f)" k2 k1) true
    (k2 > 0.8 *. k1)

let () =
  Alcotest.run "perfbench"
    [
      ( "counts",
        [
          Alcotest.test_case "repeat for one seed" `Quick repeat_same_seed;
          Alcotest.test_case "traced matches untraced" `Quick traced_matches_untraced;
          Alcotest.test_case "K=1 matches K=2" `Quick k1_matches_k2;
        ] );
      ("gate", [ Alcotest.test_case "rejects improvable or unconverged" `Quick gate_rejects_improvable_tree ]);
      ( "layers",
        [
          Alcotest.test_case "self times add up" `Quick self_times_add_up;
          Alcotest.test_case "search and info families" `Quick search_families;
          Alcotest.test_case "alloc counts the worker domain" `Quick alloc_counts_worker_domain;
        ] );
    ]
