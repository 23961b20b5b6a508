(* Golden step-trace tests: three fixed-seed clean-start executions of the
   real protocol, one projection line per event, committed under
   test/golden/.  Each run also steps the reference model in lockstep, so a
   trace mismatch localizes to either a protocol change (model diverges at
   the same event) or an engine schedule change (model agrees, golden
   differs).  Regenerate after an intentional change with

     MDST_GOLDEN_UPDATE=test/golden dune exec test/test_model.exe *)

module Graph = Mdst_graph.Graph
module Model = Mdst_model.Model
module Projection = Mdst_core.Projection
module E = Mdst_sim.Pengine.Make (Mdst_core.Proto.Default)

type fixture = { fname : string; graph : Graph.t; seed : int; events : int }

let star n = Graph.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1)))
let path n = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let fixtures =
  [
    { fname = "k4"; graph = Graph.complete 4; seed = 7; events = 200 };
    { fname = "star6"; graph = star 6; seed = 11; events = 240 };
    { fname = "path5"; graph = path 5; seed = 13; events = 200 };
  ]

(* One line per event: "<event> <projection>", both round-trippable
   ([Model.event_of_string], [Projection.of_string]). *)
let trace_lines fx =
  let engine = E.create ~seed:fx.seed ~init:`Clean fx.graph in
  let model =
    ref
      (Model.make ~params:Model.default ~states:(E.states engine)
         ~in_flight:(E.in_flight engine) fx.graph)
  in
  let pending = ref None in
  E.observe engine (function
    | Mdst_sim.Pengine.Obs_tick { node; _ } -> pending := Some (Model.Tick node)
    | Obs_deliver { src; dst; _ } -> pending := Some (Model.Deliver { src; dst })
    | Obs_fault _ -> ());
  let lines = ref [] in
  for i = 1 to fx.events do
    if not (E.step engine) then Alcotest.failf "%s: engine ran dry" fx.fname;
    let ev =
      match !pending with
      | Some e -> e
      | None -> Alcotest.failf "%s: step %d produced no observation" fx.fname i
    in
    pending := None;
    model := Model.step !model ev;
    let real = Projection.of_states (E.states engine) in
    let mdl = Projection.of_states (!model).Model.nodes in
    if not (Projection.equal real mdl) then
      Alcotest.failf "%s: reference model diverged at event %d (%s): %s"
        fx.fname i
        (Model.event_to_string ev)
        (String.concat "; "
           (List.map
              (fun (v, d) -> Printf.sprintf "node %d: %s" v d)
              (Projection.diff real mdl)));
    lines := (Model.event_to_string ev ^ " " ^ Projection.to_string real) :: !lines
  done;
  List.rev !lines

let golden_path fx = Filename.concat "golden" (fx.fname ^ ".trace")

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_golden fx () =
  let fresh = trace_lines fx in
  let golden =
    try read_lines (golden_path fx)
    with Sys_error _ ->
      Alcotest.failf
        "%s missing — regenerate with MDST_GOLDEN_UPDATE=test/golden dune \
         exec test/test_model.exe"
        (golden_path fx)
  in
  if List.length golden <> List.length fresh then
    Alcotest.failf "%s: %d golden lines, %d fresh" fx.fname
      (List.length golden) (List.length fresh);
  List.iteri
    (fun i (g, f) ->
      if g <> f then
        Alcotest.failf "%s: first mismatch at event %d\n  golden: %s\n  fresh:  %s"
          fx.fname (i + 1) g f)
    (List.combine golden fresh)

(* The committed traces must stay parseable — they are documentation of the
   reproducer vocabulary as much as regression pins. *)
let test_roundtrip fx () =
  List.iter
    (fun line ->
      match String.index_opt line ' ' with
      | None -> Alcotest.failf "%s: malformed line %S" fx.fname line
      | Some i ->
          let ev = String.sub line 0 i in
          let proj = String.sub line (i + 1) (String.length line - i - 1) in
          let ev' = Model.event_to_string (Model.event_of_string ev) in
          Alcotest.(check string) "event round-trip" ev ev';
          let proj' = Projection.to_string (Projection.of_string proj) in
          Alcotest.(check string) "projection round-trip" proj proj')
    (read_lines (golden_path fx))

let update_goldens dir =
  List.iter
    (fun fx ->
      let path = Filename.concat dir (fx.fname ^ ".trace") in
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) (trace_lines fx);
      close_out oc;
      Printf.printf "wrote %s (%d events)\n" path fx.events)
    fixtures

let () =
  match Sys.getenv_opt "MDST_GOLDEN_UPDATE" with
  | Some dir -> update_goldens dir
  | None ->
      Alcotest.run "model"
        [
          ( "golden-traces",
            List.map
              (fun fx ->
                Alcotest.test_case (fx.fname ^ " matches golden") `Quick
                  (test_golden fx))
              fixtures );
          ( "golden-roundtrip",
            List.map
              (fun fx ->
                Alcotest.test_case (fx.fname ^ " lines parse") `Quick
                  (test_roundtrip fx))
              fixtures );
        ]
