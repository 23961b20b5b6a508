(* The shared reproducer grammar.  See repro.mli. *)

module Graph = Mdst_graph.Graph
module Fault = Mdst_sim.Fault

let fail fmt = Printf.ksprintf invalid_arg fmt

let common g ~seed =
  let n = Graph.n g in
  let ids = List.init n (Graph.id g) in
  let identity = List.for_all2 ( = ) ids (List.init n Fun.id) in
  let edges =
    Array.to_list (Graph.edges g)
    |> List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v)
    |> String.concat ","
  in
  [ Printf.sprintf "n=%d" n ]
  @ (if identity then [] else [ "ids=" ^ String.concat "," (List.map string_of_int ids) ])
  @ [ "edges=" ^ edges; Printf.sprintf "seed=%d" seed ]

(* Components newest first, so [List.assoc_opt] finds the last one. *)
type fields = { what : string; kvs : (string * string) list }

let common_keys = [ "n"; "ids"; "edges"; "seed" ]

let parse ~what ~keys s =
  let component acc part =
    let part = String.trim part in
    if part = "" then acc
    else
      match String.index_opt part '=' with
      | None -> fail "%s: bad component %S" what part
      | Some i ->
          let key = String.sub part 0 i in
          if not (List.mem key common_keys || List.mem key keys) then
            fail "%s: unknown key %S" what key;
          (key, String.sub part (i + 1) (String.length part - i - 1)) :: acc
  in
  { what; kvs = List.fold_left component [] (String.split_on_char ';' s) }

let find f key = List.assoc_opt key f.kvs

let bad f key value = fail "%s: bad %s %S" f.what key value

let to_int f key v =
  match int_of_string_opt (String.trim v) with Some x -> x | None -> bad f key v

let int f key = Option.map (to_int f key) (find f key)

let nat f key =
  match int f key with Some v when v < 0 -> bad f key (string_of_int v) | r -> r

let enum f key names =
  Option.map
    (fun v -> match List.assoc_opt v names with Some x -> x | None -> bad f key v)
    (find f key)

let graph f =
  let edge e =
    match List.map int_of_string_opt (String.split_on_char '-' (String.trim e)) with
    | [ Some u; Some v ] -> Some (u, v)
    | _ -> if String.trim e = "" then None else bad f "edges" e
  in
  match (int f "n", find f "edges") with
  | Some n, Some edges ->
      let ids =
        Option.map
          (fun v -> Array.of_list (List.map (to_int f "ids") (String.split_on_char ',' v)))
          (find f "ids")
      in
      Graph.of_edges ?ids ~n (List.filter_map edge (String.split_on_char ',' edges))
  | _ -> fail "%s: missing n= or edges=" f.what

let seed f = Option.value ~default:0 (int f "seed")

let plan f =
  match find f "plan" with
  | None -> Fault.empty
  | Some v -> ( try Fault.of_string v with Invalid_argument m -> fail "%s: %s" f.what m)
