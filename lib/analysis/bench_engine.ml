(* E19 — engine macro-benchmarks.

   Measures the async engine at production scale (n up to 2048): events per
   second of a fault-free clean-start protocol run and the live-heap
   footprint of the engine, on ER (avg deg 4) and grid topologies.  This is
   the persistent perf trajectory: `mdst_sim bench` (and `make bench-json`)
   serialize these points to BENCH_engine.json so regressions in the
   delivery hot path or the memory model are visible across commits.

   Since schema v2 the sweep also measures the engine's parallel windows
   ({!Mdst_sim.Pengine.Make.run_window}) at several domain counts: each parallel point
   carries a [speedup] against the one-shard engine on the same
   (topology, n), and the header records how many cores the machine
   actually had — a speedup measured on fewer cores than domains is an
   oversubscription datum, not a scaling claim.

   The workload is the real protocol from a clean start — tree
   construction, gossip and search traffic all exercise the send/deliver
   path — stepped for a fixed event budget rather than to convergence, so
   the measure stays O(budget) at every size. *)

module Graph = Mdst_graph.Graph
module Gen = Mdst_graph.Gen
module Prng = Mdst_util.Prng
module Run = Mdst_core.Run

type point = {
  topology : string;
  n : int;
  m : int;
  domains : int;  (** shards: 1 = sequential stepping, >1 = parallel windows *)
  events : int;  (** engine events processed during the timed window *)
  elapsed_s : float;
  events_per_sec : float;
  speedup : float;  (** vs the domains=1 point of the same (topology, n) *)
  engine_bytes : int;  (** live-heap delta attributable to engine + run *)
}

let sizes ~quick = if quick then [ 64; 256 ] else [ 64; 256; 1024; 2048 ]

(* Parallel sweep: largest sizes only (small instances measure
   synchronisation, not throughput). *)
let par_sizes ~quick = if quick then [ 256 ] else [ 1024; 2048 ]

let par_domains ~quick = if quick then [ 2 ] else [ 2; 4; 8 ]

let event_budget ~quick = if quick then 20_000 else 200_000

let cores () = Domain.recommended_domain_count ()

let graph_for topology n =
  match topology with
  | "er" ->
      let p = 4.0 /. float_of_int (n - 1) in
      Gen.erdos_renyi_connected (Prng.create (0xbe2c lxor n)) ~n ~p
  | "grid" -> Gen.by_name "grid" (Prng.create (0xbe2c lxor n)) ~n
  | other -> invalid_arg (Printf.sprintf "Bench_engine.graph_for: unknown topology %S" other)

let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

(* One shard steps event by event; more shards advance whole virtual-time
   windows, so their count overshoots the budget by at most one window's
   worth — the rate uses the count actually executed. *)
let bench_point ~topology ~events ~domains graph =
  let before = live_bytes () in
  let engine = Run.make_engine ~seed:11 ~init:`Clean ~domains graph in
  let t0 = Unix.gettimeofday () in
  if domains = 1 then
    while Run.Sim.events engine < events && Run.Sim.step engine do
      ()
    done
  else
    while Run.Sim.events engine < events do
      Run.Sim.run_window engine ~until:(Run.Sim.now engine +. 8.0)
    done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let executed = Run.Sim.events engine in
  let after = live_bytes () in
  ignore (Sys.opaque_identity engine);
  {
    topology;
    n = Graph.n graph;
    m = Graph.m graph;
    domains;
    events = executed;
    elapsed_s = elapsed;
    events_per_sec = (if elapsed > 0.0 then float_of_int executed /. elapsed else 0.0);
    speedup = 0.0 (* filled by [with_speedups] *);
    engine_bytes = max 0 (after - before);
  }

let with_speedups pts =
  List.map
    (fun p ->
      if p.domains = 1 then { p with speedup = 1.0 }
      else
        match
          List.find_opt
            (fun b -> b.domains = 1 && b.topology = p.topology && b.n = p.n)
            pts
        with
        | Some b when b.events_per_sec > 0.0 ->
            { p with speedup = p.events_per_sec /. b.events_per_sec }
        | _ -> { p with speedup = 0.0 })
    pts

(* An untimed warm-up run before the sweep: the first measured point used
   to absorb one-off costs (page faults, branch-predictor and allocator
   warm-up, lazy runtime initialisation), which showed up as a systematic
   dip on whichever (topology, n) happened to run first. *)
let warmup () =
  let g = graph_for "er" 64 in
  ignore (Sys.opaque_identity (bench_point ~topology:"er" ~events:5_000 ~domains:1 g))

let points ?(quick = false) () =
  let events = event_budget ~quick in
  warmup ();
  let seq =
    List.concat_map
      (fun topology ->
        List.map
          (fun n -> bench_point ~topology ~events ~domains:1 (graph_for topology n))
          (sizes ~quick))
      [ "er"; "grid" ]
  in
  let par =
    List.concat_map
      (fun topology ->
        List.concat_map
          (fun n ->
            let graph = graph_for topology n in
            List.map
              (fun domains -> bench_point ~topology ~events ~domains graph)
              (par_domains ~quick))
          (par_sizes ~quick))
      [ "er"; "grid" ]
  in
  with_speedups (seq @ par)

let table pts =
  let t =
    Table.make ~title:"E19: engine macro-benchmarks (fault-free protocol, clean start)"
      ~columns:[ "topology"; "n"; "m"; "domains"; "events"; "events/s"; "speedup"; "engine MB" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.topology;
          Table.cell_int p.n;
          Table.cell_int p.m;
          Table.cell_int p.domains;
          Table.cell_int p.events;
          Table.cell_float ~decimals:0 p.events_per_sec;
          Table.cell_float ~decimals:2 p.speedup;
          Table.cell_float ~decimals:2 (float_of_int p.engine_bytes /. 1e6);
        ])
    pts;
  Table.add_note t
    "engine MB = live-heap delta of engine + run (sparse FIFO floors: O(n + m), no n^2 matrix)";
  Table.add_note t
    (Printf.sprintf "speedup = events/s vs the domains=1 row of the same (topology, n); %d cores available"
       (cores ()));
  t

let run ?(quick = false) () = [ table (points ~quick ()) ]

(* Hand-rolled writer: the schema is flat and the toolchain carries no JSON
   dependency.  [%.17g] round-trips every float exactly. *)
let to_json ?(quick = false) pts =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"schema\": \"mdst-bench-engine/2\",\n  \"quick\": %b,\n  \"cores\": %d,\n  \"points\": [\n"
       quick (cores ()));
  List.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"topology\": %S, \"n\": %d, \"m\": %d, \"domains\": %d, \"events\": %d, \
            \"elapsed_s\": %.17g, \"events_per_sec\": %.1f, \"speedup\": %.3f, \
            \"engine_bytes\": %d}%s\n"
           p.topology p.n p.m p.domains p.events p.elapsed_s p.events_per_sec p.speedup
           p.engine_bytes
           (if i = List.length pts - 1 then "" else ",")))
    pts;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write_json ~path ?(quick = false) pts =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_json ~quick pts))

(* --- Regression guard ----------------------------------------------------- *)

(* Line-oriented reader of the point lines [to_json] emits; other lines
   (header, closing brackets, future fields) are skipped, degrading to "no
   baseline points" rather than crashing on drift. *)
let parse_point_line line =
  match
    Scanf.sscanf line
      " {\"topology\": %S, \"n\": %d, \"m\": %d, \"domains\": %d, \"events\": %d, \
       \"elapsed_s\": %f, \"events_per_sec\": %f, \"speedup\": %f, \"engine_bytes\": %d"
      (fun topology n m domains events elapsed_s events_per_sec speedup engine_bytes ->
        { topology; n; m; domains; events; elapsed_s; events_per_sec; speedup; engine_bytes })
  with
  | p -> Some p
  | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None

let load_json path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (match parse_point_line line with Some p -> p :: acc | None -> acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Compare fresh points against a committed baseline on the intersection of
   (topology, n, domains) keys: any events/sec drop beyond [tolerance] (a
   fraction, default 30%) is reported.  Machines differ, so the guard is
   deliberately loose — it exists to catch order-of-magnitude hot-path
   regressions, not single-digit noise. *)
let regressions ?(tolerance = 0.3) ~baseline fresh =
  List.filter_map
    (fun b ->
      match
        List.find_opt
          (fun p -> p.topology = b.topology && p.n = b.n && p.domains = b.domains)
          fresh
      with
      | None -> None
      | Some _ when b.events_per_sec <= 0.0 -> None
      | Some p ->
          let floor = (1.0 -. tolerance) *. b.events_per_sec in
          if p.events_per_sec < floor then
            Some
              (Printf.sprintf
                 "%s n=%d domains=%d: %.0f events/s vs baseline %.0f (%.0f%% drop > %.0f%% \
                  tolerance)"
                 p.topology p.n p.domains p.events_per_sec b.events_per_sec
                 (100.0 *. (1.0 -. (p.events_per_sec /. b.events_per_sec)))
                 (100.0 *. tolerance))
          else None)
    baseline
