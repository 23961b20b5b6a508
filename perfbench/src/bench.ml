(* Set-up, passes, the correctness gate and the metric sets.

   A run generates the workload's instance set from the seed, runs every
   instance to the FR fixpoint, then keeps running chunks of the set until
   [seconds] have passed; set-up is re-timed before every chunk.  Host-time
   metrics are medians; counts are per-instance means and must repeat
   exactly every time an instance runs, in the traced run, and at K=1 on
   the sharded workload, or the run is not correct. *)

module Graph = Mdst_graph.Graph
module Tree = Mdst_graph.Tree
module Partition = Mdst_graph.Partition
module Fr = Mdst_baseline.Fr

module Plain_seq = Drive.Make (Meter.Counted)
module Plain_par = Drive.Make (Mdst_core.Proto.Default)
module Traced = Drive.Make (Meter.Timed)

(* A set-up of one of these small instance sets takes milliseconds, so one
   sample repeats the set-up until [setup_sample_s] has passed and reports
   the mean.  Samples are taken between chunks, spread over the whole run
   like the timed work, and [setup_s] is their median. *)
let setup_sample_s = 0.02

(* Host time is summarised per chunk of consecutive instances, and the
   median over chunks is reported: on a shared machine the speed drifts
   over seconds, and a median over short chunks spread across the run
   resists a slow spell better than one long mean. *)
let chunks_per_pass = 16

type sample = { gen_s : float; partition_s : float; create_s : float }

type setup = {
  instances : Workload.instance array;
  partitions : int array array;  (** per instance; empty on sequential workloads *)
  mutable samples : sample list;
}

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then nan else if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let mean_int f xs = float_of_int (Array.fold_left (fun s x -> s + f x) 0 xs) /. float_of_int (Array.length xs)
let mean_float f xs = Array.fold_left (fun s x -> s +. f x) 0.0 xs /. float_of_int (Array.length xs)

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.seconds (Clock.now_ns () - t0))

(* One set-up: generate the instances (graphs with random ids, latency
   models, fault plans), partition them for the sharded engine, and create
   (then drop) one engine per instance. *)
let setup_once (w : Workload.t) ~seed =
  let root = Workload.root w ~seed in
  let instances, gen_s = timed (fun () -> Array.init w.instances (Workload.instance w ~root)) in
  let partitions, partition_s =
    timed (fun () ->
        match w.engine with
        | Sequential -> [||]
        | Sharded k -> Array.map (fun (i : Workload.instance) -> Partition.blocks i.graph ~parts:k) instances)
  in
  let (), create_s =
    timed (fun () ->
        Array.iteri
          (fun k (i : Workload.instance) ->
            match w.engine with
            | Sequential ->
                let e = Plain_seq.R.make_engine ~latency:i.latency ~seed:i.engine_seed ~init:w.init i.graph in
                if not (Mdst_sim.Fault.is_empty i.plan) then Plain_seq.R.Engine.install_faults e i.plan;
                ignore (Sys.opaque_identity e)
            | Sharded domains ->
                ignore
                  (Sys.opaque_identity
                     (Plain_par.R.make_pengine ~latency:i.latency ~seed:i.engine_seed ~init:w.init
                        ~partition:partitions.(k) ~domains i.graph)))
          instances)
  in
  (instances, partitions, { gen_s; partition_s; create_s })

let setup_sample w ~seed =
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let rec go acc =
    let acc = setup_once w ~seed :: acc in
    if Clock.seconds (Clock.now_ns () - t0) < setup_sample_s then go acc else acc
  in
  let runs = go [] in
  let instances, partitions, _ = List.hd runs in
  let mean f = List.fold_left (fun a (_, _, x) -> a +. f x) 0.0 runs /. float_of_int (List.length runs) in
  ( instances,
    partitions,
    { gen_s = mean (fun x -> x.gen_s); partition_s = mean (fun x -> x.partition_s); create_s = mean (fun x -> x.create_s) } )

let setup w ~seed =
  let instances, partitions, sample = setup_sample w ~seed in
  { instances; partitions; samples = [ sample ] }

let resample s w ~seed =
  let _, _, sample = setup_sample w ~seed in
  s.samples <- sample :: s.samples

let setup_median s f = median (List.map f s.samples)

type mode = Plain | Traced_run | Plain_domains of int

(* One instance in [mode]; traced runs also return the handler meters. *)
let run_instance mode (w : Workload.t) (s : setup) k =
  let inst = s.instances.(k) in
  match (w.engine, mode) with
  | Sequential, (Plain | Plain_domains _) ->
      Meter.ticks := 0;
      (Plain_seq.sequential w inst ~ticks:(fun () -> !Meter.ticks), None)
  | Sequential, Traced_run ->
      Meter.reset ~n:(Graph.n inst.graph);
      let o = Traced.sequential w inst ~ticks:(fun () -> (Meter.acc ()).calls.(Meter.tick)) in
      (o, Some (Meter.collect ()))
  | Sharded domains, Plain -> (Plain_par.sharded w inst ~domains ~partition:s.partitions.(k), None)
  | Sharded _, Plain_domains domains ->
      let partition = Partition.blocks inst.graph ~parts:domains in
      (Plain_par.sharded w inst ~domains ~partition, None)
  | Sharded domains, Traced_run ->
      Meter.reset ~n:(Graph.n inst.graph);
      let o = Traced.sharded w inst ~domains ~partition:s.partitions.(k) in
      (o, Some (Meter.collect ()))

let chunk_size (w : Workload.t) = max 1 (w.instances / chunks_per_pass)

(* Every instance once, in order; [before_chunk] runs before each chunk. *)
let pass ?(before_chunk = ignore) mode w s =
  let c = chunk_size w in
  Array.init (Array.length s.instances) (fun k ->
      if k mod c = 0 then before_chunk ();
      run_instance mode w s k)

(* The gate: legitimate at the FR fixpoint, within one of the FR degree. *)
let instance_ok ~fr_degree (o : Drive.outcome) =
  o.converged && o.legitimate
  &&
  match o.tree with
  | Some t -> (not (Fr.improvable t)) && Tree.max_degree t <= fr_degree + 1
  | None -> false

(* Everything that must repeat exactly for one instance. *)
let counts (o : Drive.outcome) =
  ( (o.rounds, o.det.legit_round, o.recovery_rounds, o.events),
    (o.messages, o.bits, Array.to_list o.family_msgs, Array.to_list o.family_bits),
    Option.map Tree.max_degree o.tree )

let same_counts a b = Array.for_all2 (fun (x, _) (y, _) -> counts x = counts y) a b

let fr_degrees s = Array.map (fun (i : Workload.instance) -> Tree.max_degree (Fr.approx_mdst i.graph)) s.instances

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let outcomes p = Array.map fst p

(* [runs] pairs each outcome with its instance index. *)
let gate ~fr runs =
  let failed = List.fold_left (fun a (k, o) -> if instance_ok ~fr_degree:fr.(k) o then a else a + 1) 0 runs in
  (List.length runs, failed)

let indexed p = Array.to_list (Array.mapi (fun k (o, _) -> (k, o)) p)

let mean_run_s os = mean_int (fun (o : Drive.outcome) -> o.run_ns) os *. 1e-9

let events_per_s os =
  let ev = Array.fold_left (fun a (o : Drive.outcome) -> a + o.events) 0 os in
  let ns = Array.fold_left (fun a (o : Drive.outcome) -> a + o.run_ns) 0 os in
  float_of_int ev /. Clock.seconds ns

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

let end_to_end (w : Workload.t) ~seed ~seconds =
  let t0 = Clock.now_ns () in
  let s = setup w ~seed in
  let fr = fr_degrees s in
  let n = Array.length s.instances and c = chunk_size w in
  (* The first pass runs every instance once; chunks then continue round
     the set until [seconds] have passed, so every run measures for its
     full time whatever the size of a pass. *)
  let rec loop k acc =
    if k >= n && Clock.seconds (Clock.now_ns () - t0) >= seconds then List.rev acc
    else begin
      resample s w ~seed;
      let start = k mod n in
      let chunk = List.init (min c (n - start)) (fun j -> (start + j, fst (run_instance Plain w s (start + j)))) in
      loop (k + List.length chunk) (chunk :: acc)
    end
  in
  let chunks = loop 0 [] in
  let runs = List.concat chunks in
  let attempted, failed = gate ~fr runs in
  let first = Array.of_list (List.map snd (List.filteri (fun i _ -> i < n) runs)) in
  let deterministic = List.for_all (fun (k, o) -> counts o = counts first.(k)) runs in
  let ok = float_of_int (attempted - failed) /. float_of_int attempted in
  (* Chunks differ in how much work their instances need, but hardly in how
     fast the engine gets through it, so host time is summarised as the
     median throughput over chunks, and the time to converge is the mean
     work per instance at that speed. *)
  let speed = median (List.map (fun ch -> events_per_s (Array.of_list (List.map snd ch))) chunks) in
  let metrics =
    [
      ("converge_s", mean_int (fun (o : Drive.outcome) -> o.events) first /. speed, "s");
      ("events_per_s", speed, "1/s");
      ("setup_s", setup_median s (fun x -> x.gen_s +. x.partition_s +. x.create_s), "s");
      ("legit_rounds", mean_int (fun (o : Drive.outcome) -> o.det.legit_round) first, "rounds");
      ("rounds", mean_int (fun (o : Drive.outcome) -> o.rounds) first, "rounds");
      ("messages", mean_int (fun (o : Drive.outcome) -> o.messages) first, "count");
      ("mbits", mean_int (fun (o : Drive.outcome) -> o.bits) first /. 1e6, "Mbit");
      ( "degree_over_fr",
        mean_float
          (fun (k, (o : Drive.outcome)) ->
            match o.tree with
            | Some t -> float_of_int (Tree.max_degree t) /. float_of_int fr.(k)
            | None -> nan)
          (Array.mapi (fun k o -> (k, o)) first),
        "ratio" );
      ("max_state_bits", mean_int (fun (o : Drive.outcome) -> o.max_state_bits) first, "bit");
      ("max_msg_bits", mean_int (fun (o : Drive.outcome) -> o.max_msg_bits) first, "bit");
      ("alloc_mb", mb_of_words (mean_float (fun (o : Drive.outcome) -> o.alloc_words) first), "MB");
      ("live_mb", mb_of_words (mean_int (fun (o : Drive.outcome) -> o.live_words) first), "MB");
      ("ok_frac", ok, "ratio");
      ("recovery_rounds", mean_int (fun (o : Drive.outcome) -> o.recovery_rounds) first, "rounds");
    ]
  in
  { correct = failed = 0 && deterministic; attempted; failed; metrics }

(* Sum of the self times the traced run reports, for checking that they
   account for [trace.converge_s]. *)
let self_time_names =
  [ "sim.engine.self_s"; "sim.engine.send_s"; "core.proto.tick.handler_s"; "core.proto.meter_s"; "core.checker.s"; "baseline.fr.oracle_s" ]
  @ List.map (Printf.sprintf "core.proto.%s.handler_s") (Array.to_list Meter.families)

(* Per-layer numbers from one traced pass, set against one untraced pass
   (tracing overhead, GC counters) and, on the sharded workload, one K=1
   pass (speedup).  Parallel handler times are summed over domains and
   divided by the domain count, so every self time is a share of the
   traced wall time and the self times add up to [trace.converge_s]. *)
let per_layer (w : Workload.t) ~seed =
  let s = setup w ~seed in
  let fr = fr_degrees s in
  let plain = pass ~before_chunk:(fun () -> resample s w ~seed) Plain w s in
  let traced = pass Traced_run w s in
  let k1 = match w.engine with Sharded _ -> Some (pass (Plain_domains 1) w s) | Sequential -> None in
  let passes = plain :: traced :: Option.to_list k1 in
  let attempted, failed = gate ~fr (List.concat_map indexed passes) in
  let deterministic = List.for_all (same_counts plain) passes in
  let n = float_of_int (Array.length s.instances) in
  let p = outcomes plain and t = outcomes traced in
  let meters = Array.map (fun (_, m) -> Option.get m) traced in
  let sum_meter f = Array.fold_left (fun a m -> a + f m) 0 meters in
  let domains = match w.engine with Sharded k -> float_of_int k | Sequential -> 1.0 in
  let per_inst_ns x = Clock.seconds x /. n in
  let share x = per_inst_ns x /. domains in
  let run_s = mean_run_s t in
  let det_ns = Array.fold_left (fun a (o : Drive.outcome) -> a + o.det.stop_ns) 0 t in
  let oracle_ns = Array.fold_left (fun a (o : Drive.outcome) -> a + o.det.oracle_ns) 0 t in
  let handler_ns = sum_meter (fun m -> Array.fold_left ( + ) 0 m.Meter.handler_ns) in
  let send_in_ns = sum_meter (fun m -> Array.fold_left ( + ) 0 m.Meter.send_in_ns) in
  let bits_in_send_ns = sum_meter (fun m -> m.Meter.bits_in_send_ns) in
  let state_bits_ns = sum_meter (fun m -> m.Meter.state_bits_ns) in
  let engine_self = run_s -. share (handler_ns + state_bits_ns) -. per_inst_ns det_ns in
  let events = mean_int (fun (o : Drive.outcome) -> o.events) t in
  let sum_det f = Array.fold_left (fun a (o : Drive.outcome) -> a + f o.det) 0 t in
  let windows = sum_det (fun d -> d.windows) in
  let family_metrics =
    List.concat
      (List.mapi
         (fun f name ->
           [
             (Printf.sprintf "core.proto.%s.msgs" name, mean_int (fun (o : Drive.outcome) -> o.family_msgs.(f)) t, "count");
             ( Printf.sprintf "core.proto.%s.mbits" name,
               mean_int (fun (o : Drive.outcome) -> o.family_bits.(f)) t /. 1e6,
               "Mbit" );
             ( Printf.sprintf "core.proto.%s.handler_s" name,
               share (sum_meter (fun m -> m.Meter.handler_ns.(f) - m.Meter.send_in_ns.(f))),
               "s" );
           ])
         (Array.to_list Meter.families))
  in
  let swaps = float_of_int (sum_meter (fun m -> m.Meter.calls.(4))) /. n in
  let search_msgs = mean_int (fun (o : Drive.outcome) -> o.family_msgs.(1)) t in
  let sharded = Option.is_some k1 in
  let if_sharded v = if sharded then v else 0.0 in
  let metrics =
    [
      ("graph.gen_s", setup_median s (fun x -> x.gen_s), "s");
      ("graph.partition_s", setup_median s (fun x -> x.partition_s), "s");
      ( "graph.cut_edges",
        (if sharded then
           mean_float
             (fun (k, part) -> float_of_int (Partition.cut_edges s.instances.(k).graph part))
             (Array.mapi (fun k x -> (k, x)) s.partitions)
         else 0.0),
        "count" );
      ("sim.engine.create_s", setup_median s (fun x -> x.create_s), "s");
      ("sim.engine.events", events, "count");
      ("sim.engine.self_s", engine_self, "s");
      ("sim.engine.ns_per_event", engine_self *. 1e9 /. events, "ns");
      ("sim.engine.send_s", share (send_in_ns - bits_in_send_ns), "s");
      ("sim.engine.sends", float_of_int (sum_meter (fun m -> m.Meter.sends)) /. n, "count");
      ( "sim.engine.peak_pending",
        float_of_int (Array.fold_left (fun a (o : Drive.outcome) -> max a o.det.peak_pending) 0 t),
        "count" );
    ]
    @ family_metrics
    @ [
        ("core.proto.tick.calls", float_of_int (sum_meter (fun m -> m.Meter.calls.(Meter.tick))) /. n, "count");
        ( "core.proto.tick.handler_s",
          share (sum_meter (fun m -> m.Meter.handler_ns.(Meter.tick) - m.Meter.send_in_ns.(Meter.tick))),
          "s" );
        ("core.proto.meter_s", share (bits_in_send_ns + state_bits_ns), "s");
        ("core.proto.swaps", swaps, "count");
        ("core.proto.search_msgs_per_swap", (if swaps > 0.0 then search_msgs /. swaps else 0.0), "ratio");
        ("core.checker.calls", float_of_int (sum_det (fun d -> d.stop_calls)) /. n, "count");
        ("core.checker.s", per_inst_ns (det_ns - oracle_ns), "s");
        ("baseline.fr.oracle_calls", float_of_int (sum_det (fun d -> d.oracle_calls)) /. n, "count");
        ("baseline.fr.oracle_s", per_inst_ns oracle_ns, "s");
        ("sim.pengine.windows", if_sharded (float_of_int windows /. n), "count");
        ("sim.pengine.null_windows", if_sharded (float_of_int (sum_det (fun d -> d.null_windows)) /. n), "count");
        ("sim.pengine.window_s", if_sharded (per_inst_ns (sum_det (fun d -> d.window_ns))), "s");
        ( "sim.pengine.events_per_window",
          if_sharded (float_of_int (sum_det (fun d -> d.window_events)) /. float_of_int (max 1 windows)),
          "count" );
        ( "sim.pengine.speedup",
          (match k1 with Some k1 -> mean_run_s (outcomes k1) /. mean_run_s p | None -> 0.0),
          "ratio" );
        ("sim.fault.applied", mean_int (fun (o : Drive.outcome) -> o.faults_applied) t, "count");
        ("sim.fault.corrupted_nodes", mean_int (fun (o : Drive.outcome) -> o.corrupted) t, "count");
        ("gc.minor_words", mean_float (fun (o : Drive.outcome) -> o.minor_words) p, "words");
        ("gc.promoted_words", mean_float (fun (o : Drive.outcome) -> o.promoted_words) p, "words");
        ("gc.major_collections", mean_int (fun (o : Drive.outcome) -> o.major_collections) p, "count");
        ("trace.converge_s", run_s, "s");
        ("trace.overhead", run_s /. mean_run_s p, "ratio");
      ]
  in
  let accounted = List.fold_left (fun a (name, v, _) -> if List.mem name self_time_names then a +. v else a) 0.0 metrics in
  let adds_up = Float.abs (accounted -. run_s) <= 1e-6 *. run_s in
  { correct = failed = 0 && deterministic && adds_up; attempted; failed; metrics }

let value r name =
  match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
  | Some (_, v, _) -> v
  | None -> invalid_arg ("no metric " ^ name)

let json r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" r.correct r.attempted
    r.failed;
  List.iteri
    (fun i (name, v, unit) ->
      let v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
      Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}" (if i = 0 then "" else ", ") name v unit)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
