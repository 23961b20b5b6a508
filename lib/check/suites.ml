(* Packed property suites shared by the CLI `pbt` subcommand and the
   bounded test suite.  Keep each property cheap: `dune runtest` runs
   these with two-digit test counts. *)

module Prng = Mdst_util.Prng
module Graph = Mdst_graph.Graph
module Fault = Mdst_sim.Fault

type packed = Pack : 'a Property.t -> packed

let name (Pack p) = p.Property.name

let check ?tests ?seed (Pack p) = Property.check ?tests ?seed p

(* ---------------- helpers ---------------- *)

let canonical_edges edges =
  List.map (fun (u, v) -> (min u v, max u v)) edges |> List.sort_uniq compare

let graph_equal a b =
  Graph.n a = Graph.n b
  && List.init (Graph.n a) (Graph.id a) = List.init (Graph.n b) (Graph.id b)
  && canonical_edges (Array.to_list (Graph.edges a))
     = canonical_edges (Array.to_list (Graph.edges b))

let seq_take k seq =
  (* Seq.take, but without pinning the stdlib version. *)
  let rec go k seq () =
    if k <= 0 then Seq.Nil
    else match seq () with Seq.Nil -> Seq.Nil | Seq.Cons (x, rest) -> Seq.Cons (x, go (k - 1) rest)
  in
  go k seq

let seed_gen = Gen.int_in 0 1_000_000_000

(* ---------------- prng ---------------- *)

let prng_int_in_bounds =
  let gen rng =
    let seed = seed_gen (Prng.split rng) in
    let lo = Gen.int_in (-1000) 1000 (Prng.split rng) in
    let span = Gen.int_in 0 2000 (Prng.split rng) in
    (seed, lo, lo + span)
  in
  Property.make ~name:"prng:int-in-bounds" ~gen
    ~print:(fun (s, lo, hi) -> Printf.sprintf "seed=%d lo=%d hi=%d" s lo hi)
    (fun (seed, lo, hi) ->
      let r = Prng.create seed in
      let bad = ref None in
      for _ = 1 to 100 do
        let v = Prng.int_in r lo hi in
        if v < lo || v > hi then bad := Some v
      done;
      match !bad with
      | None -> Ok ()
      | Some v -> Error (Printf.sprintf "draw %d outside [%d, %d]" v lo hi))

let prng_sample_without_replacement =
  let gen rng =
    let seed = seed_gen (Prng.split rng) in
    let n = Gen.int_in 0 200 (Prng.split rng) in
    let k = Gen.int_in 0 n (Prng.split rng) in
    (seed, n, k)
  in
  Property.make ~name:"prng:sample-without-replacement" ~gen
    ~print:(fun (s, n, k) -> Printf.sprintf "seed=%d n=%d k=%d" s n k)
    (fun (seed, n, k) ->
      let xs = Prng.sample_without_replacement (Prng.create seed) k n in
      if List.length xs <> k then
        Error (Printf.sprintf "drew %d values, wanted %d" (List.length xs) k)
      else if List.exists (fun x -> x < 0 || x >= n) xs then
        Error (Printf.sprintf "value outside [0, %d)" n)
      else
        let rec strictly_increasing = function
          | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
          | _ -> true
        in
        if strictly_increasing xs then Ok ()
        else Error "result not strictly increasing (duplicate or unsorted)")

let prng_split_distinct =
  Property.make ~name:"prng:split-streams-distinct" ~gen:seed_gen
    ~print:(fun s -> Printf.sprintf "seed=%d" s)
    (fun seed ->
      let parent = Prng.create seed in
      let firsts = List.init 256 (fun _ -> Prng.bits64 (Prng.split parent)) in
      let distinct = List.length (List.sort_uniq compare firsts) in
      if distinct = 256 then Ok ()
      else Error (Printf.sprintf "only %d distinct first outputs across 256 split children" distinct))

let prng_determinism =
  Property.make ~name:"prng:create-copy-determinism" ~gen:seed_gen
    ~print:(fun s -> Printf.sprintf "seed=%d" s)
    (fun seed ->
      let a = Prng.create seed and b = Prng.create seed in
      let stream r = List.init 64 (fun _ -> Prng.bits64 r) in
      if stream a <> stream b then Error "two generators from one seed diverged"
      else
        let c = Prng.copy a in
        if stream a = stream c then Ok ()
        else Error "a copy diverged from its original")

let prng = [ Pack prng_int_in_bounds; Pack prng_sample_without_replacement;
             Pack prng_split_distinct; Pack prng_determinism ]

(* ---------------- graph ---------------- *)

let prufer_roundtrip =
  let gen rng =
    let n = Gen.int_in 2 40 (Prng.split rng) in
    (n, Mdst_graph.Prufer.random_tree (Prng.split rng) ~n)
  in
  Property.make ~name:"graph:prufer-roundtrip" ~gen
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ","
           (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges)))
    (fun (n, edges) ->
      let back = Mdst_graph.Prufer.decode ~n (Mdst_graph.Prufer.encode ~n edges) in
      if canonical_edges back = canonical_edges edges then Ok ()
      else Error "decode (encode tree) is a different tree")

let generator_connected =
  Property.make ~name:"graph:generator-connected"
    ~gen:(Gen.connected_graph ~min_n:4 ~max_n:16 ())
    ~shrink:Shrink.graph ~print:Mdst_graph.Io.to_string
    (fun g ->
      if not (Mdst_graph.Algo.is_connected g) then Error "generated graph is disconnected"
      else if Graph.n g < 4 || Graph.n g > 16 then
        Error (Printf.sprintf "n = %d outside the requested [4, 16]" (Graph.n g))
      else Ok ())

let io_roundtrip =
  Property.make ~name:"graph:io-roundtrip"
    ~gen:(Gen.connected_graph ())
    ~shrink:Shrink.graph ~print:Mdst_graph.Io.to_string
    (fun g ->
      let back = Mdst_graph.Io.of_string (Mdst_graph.Io.to_string g) in
      if graph_equal g back then Ok ()
      else Error "of_string (to_string g) differs from g")

let shrink_preserves_connectivity =
  Property.make ~name:"graph:shrink-candidates-connected"
    ~gen:(Gen.connected_graph ~max_n:10 ())
    ~print:Mdst_graph.Io.to_string
    (fun g ->
      let bad =
        Seq.filter (fun c -> not (Mdst_graph.Algo.is_connected c)) (seq_take 64 (Shrink.graph g))
      in
      match bad () with
      | Seq.Nil -> Ok ()
      | Seq.Cons (c, _) ->
          Error
            (Printf.sprintf "shrink candidate disconnected:\n%s" (Mdst_graph.Io.to_string c)))

let graph = [ Pack prufer_roundtrip; Pack generator_connected; Pack io_roundtrip;
              Pack shrink_preserves_connectivity ]

(* ---------------- faults / reproducer formats ---------------- *)

let plan_gen rng =
  let g = Gen.connected_graph () (Prng.split rng) in
  Gen.fault_plan ~graph:g () (Prng.split rng)

let plan_roundtrip =
  Property.make ~name:"faults:plan-roundtrip" ~gen:plan_gen
    ~shrink:Shrink.plan ~print:Fault.to_string
    (fun p ->
      if Fault.of_string (Fault.to_string p) = p then Ok ()
      else Error "of_string (to_string plan) differs from plan")

let plan_horizon =
  Property.make ~name:"faults:plan-within-horizon" ~gen:plan_gen
    ~shrink:Shrink.plan ~print:Fault.to_string
    (fun p ->
      if Fault.last_fault_round p > 400 then
        Error (Printf.sprintf "last fault round %d past the 400 horizon" (Fault.last_fault_round p))
      else if List.exists (fun v -> v < 0) (Fault.nodes_mentioned p) then
        Error "negative node mentioned"
      else Ok ())

let case_roundtrip =
  Property.make ~name:"faults:case-roundtrip"
    ~gen:(Convergence.gen_case ())
    ~shrink:Convergence.shrink_case ~print:Convergence.case_to_string
    (fun c ->
      let back = Convergence.case_of_string (Convergence.case_to_string c) in
      if
        graph_equal c.Convergence.graph back.Convergence.graph
        && back.Convergence.plan = c.Convergence.plan
        && back.Convergence.seed = c.Convergence.seed
      then Ok ()
      else Error "case_of_string (case_to_string c) differs from c")

let faults = [ Pack plan_roundtrip; Pack plan_horizon; Pack case_roundtrip ]

(* ---------------- model ---------------- *)

module Model = Mdst_model.Model
module Projection = Mdst_core.Projection

(* A small engine exists here only to manufacture realistic configurations
   (clean or adversarial) for the model-level properties; the walks
   themselves are pure [Model.step] iteration. *)
module ME = Mdst_sim.Pengine.Make (Mdst_core.Proto.Default)

let seed_model (c : Conformance.case) =
  let init = match c.Conformance.init with `Clean -> `Clean | `Random -> `Random in
  let e = ME.create ~seed:c.Conformance.seed ~init c.Conformance.graph in
  Model.make ~params:Model.default ~states:(ME.states e) ~in_flight:(ME.in_flight e)
    c.Conformance.graph

(* Walk [steps] uniformly random enabled events (every tick, every
   non-empty channel head), calling [f] on each configuration/event pair
   before stepping.  Event choice derives from the case seed only, so a
   case string replays the walk. *)
let walk_model (c : Conformance.case) f =
  let rng = Prng.create (c.Conformance.seed lxor 0x5eed) in
  let cur = ref (seed_model c) in
  for _ = 1 to c.Conformance.events do
    let n = Graph.n (!cur).Model.graph in
    let delivers =
      Model.nonempty_channels !cur
      |> List.map (fun (src, dst) -> Model.Deliver { src; dst })
    in
    let events = Array.of_list (List.init n (fun v -> Model.Tick v) @ delivers) in
    let ev = events.(Prng.int rng (Array.length events)) in
    f !cur ev;
    cur := Model.step !cur ev
  done;
  !cur

let model_gen = Conformance.gen_case ~min_n:3 ~max_n:7 ~max_events:60 ()

let model_step_determinism =
  Property.make ~name:"model:step-determinism" ~gen:model_gen
    ~shrink:Conformance.shrink_case ~print:Conformance.case_to_string
    (fun c ->
      let bad = ref None in
      ignore
        (walk_model c (fun cfg ev ->
             if !bad = None && not (Model.equal (Model.step cfg ev) (Model.step cfg ev))
             then bad := Some (Model.event_to_string ev)));
      match !bad with
      | None -> Ok ()
      | Some ev ->
          Error (Printf.sprintf "two applications of event %s disagree (step impure?)" ev))

let model_projection_roundtrip =
  Property.make ~name:"model:projection-roundtrip" ~gen:model_gen
    ~shrink:Conformance.shrink_case ~print:Conformance.case_to_string
    (fun c ->
      let bad = ref false in
      ignore
        (walk_model c (fun cfg _ ->
             let p = Projection.of_states cfg.Model.nodes in
             if not (Projection.equal (Projection.of_string (Projection.to_string p)) p)
             then bad := true));
      if !bad then Error "of_string (to_string projection) differs from projection"
      else Ok ())

let model_fingerprint_stability =
  (* The explorer keys its visited set on [fingerprint_states]; two things
     must hold for that to be sound: the allocation-free hash agrees with
     the projection-level one, and the phase bits (busy, deblock — excluded
     from the hash so post-convergence quiescence stays detectable) never
     influence it. *)
  Property.make ~name:"model:fingerprint-stability" ~gen:model_gen
    ~shrink:Conformance.shrink_case ~print:Conformance.case_to_string
    (fun c ->
      let bad = ref None in
      ignore
        (walk_model c (fun cfg _ ->
             if !bad = None then begin
               let p = Projection.of_states cfg.Model.nodes in
               let fp = Projection.fingerprint p in
               if Projection.fingerprint_states cfg.Model.nodes <> fp then
                 bad := Some "fingerprint_states disagrees with fingerprint-of-projection"
               else
                 let flipped =
                   Array.map
                     (fun nd ->
                       {
                         nd with
                         Projection.p_busy = not nd.Projection.p_busy;
                         p_deblock = not nd.Projection.p_deblock;
                       })
                     p
                 in
                 if Projection.fingerprint flipped <> fp then
                   bad := Some "phase bits leak into the fingerprint"
             end));
      match !bad with None -> Ok () | Some why -> Error why)

let model =
  [
    Pack model_step_determinism;
    Pack model_projection_roundtrip;
    Pack model_fingerprint_stability;
    Pack (Conformance.Default.property ~max_n:6 ~max_events:150 ());
    Pack (Conformance.Suppressed.property ~max_n:6 ~max_events:150 ());
  ]

(* ---------------- proto ---------------- *)

(* Each test is a full clean-start run to convergence plus an observation
   window, so the graphs stay small — the bounded suite runs this with
   two-digit test counts. *)
let proto = [ Pack (Searchpath.property ~min_n:4 ~max_n:10 ()) ]

let all = prng @ graph @ faults @ model @ proto

let suite_names = [ "prng"; "graph"; "faults"; "model"; "proto"; "all" ]

let by_name = function
  | "prng" -> prng
  | "graph" -> graph
  | "faults" -> faults
  | "model" -> model
  | "proto" -> proto
  | "all" -> all
  | s ->
      invalid_arg
        (Printf.sprintf
           "Suites.by_name: unknown suite %S (want prng|graph|faults|model|proto|all)" s)
