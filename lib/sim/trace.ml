type t = {
  capacity : int;
  keep : Pengine.observation -> bool;
  buffer : Pengine.observation option array;
  mutable next : int;  (* ring index *)
  mutable stored : int;
  mutable recorded : int;
}

let keep_protocol_only = function
  | Pengine.Obs_deliver { label; _ } -> label <> "info"
  | Pengine.Obs_fault _ -> true
  | Pengine.Obs_tick _ -> false

let create ?(capacity = 4096) ?(keep = keep_protocol_only) () =
  {
    capacity = max 1 capacity;
    keep;
    buffer = Array.make (max 1 capacity) None;
    next = 0;
    stored = 0;
    recorded = 0;
  }

let record t obs =
  if t.keep obs then begin
    t.recorded <- t.recorded + 1;
    t.buffer.(t.next) <- Some obs;
    t.next <- (t.next + 1) mod t.capacity;
    if t.stored < t.capacity then t.stored <- t.stored + 1
  end

let events t =
  let start = if t.stored < t.capacity then 0 else t.next in
  List.init t.stored (fun i ->
      match t.buffer.((start + i) mod t.capacity) with
      | Some obs -> obs
      | None -> assert false)

let recorded t = t.recorded

let counts_by_label t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun obs ->
      match obs with
      | Pengine.Obs_deliver { label; _ } ->
          Hashtbl.replace tbl label (1 + Option.value ~default:0 (Hashtbl.find_opt tbl label))
      | Pengine.Obs_fault { kind; _ } ->
          let label = "fault:" ^ kind in
          Hashtbl.replace tbl label (1 + Option.value ~default:0 (Hashtbl.find_opt tbl label))
      | Pengine.Obs_tick _ -> ())
    (events t);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let render ?limit t =
  let evs = events t in
  let evs =
    match limit with
    | Some l when List.length evs > l ->
        List.filteri (fun i _ -> i >= List.length evs - l) evs
    | Some _ | None -> evs
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun obs ->
      match obs with
      | Pengine.Obs_deliver { src; dst; label; round; time } ->
          Buffer.add_string buf
            (Printf.sprintf "[round %5d | t=%8.1f] %-12s %d -> %d\n" round time label src dst)
      | Pengine.Obs_fault { kind; detail; round; time } ->
          Buffer.add_string buf
            (Printf.sprintf "[round %5d | t=%8.1f] fault:%-6s %s\n" round time kind detail)
      | Pengine.Obs_tick { node; round; time } ->
          Buffer.add_string buf (Printf.sprintf "[round %5d | t=%8.1f] tick         %d\n" round time node))
    evs;
  Buffer.contents buf

let clear t =
  Array.fill t.buffer 0 t.capacity None;
  t.next <- 0;
  t.stored <- 0;
  t.recorded <- 0
