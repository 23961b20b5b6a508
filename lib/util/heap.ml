(* Parallel-array binary min-heap.

   Priorities, insertion sequence numbers and values live in three
   parallel arrays instead of one entry record per element: a float array
   stores its elements unboxed, so [push] and the engine-facing
   [top_prio]/[drop_min] path allocate nothing at all.  The engine pushes
   and pops one event per simulated send/tick — with entry records this
   was ~11 words per push/pop pair, a measurable slice of the protocol
   macro-benchmark's allocation volume (E20).

   Vacated value slots must not keep the old element reachable: the
   engine's event heap is long-lived, and a popped event pinned in
   [values.(size)] would retain its whole message payload until the slot
   is overwritten (if ever).  Every removal overwrites the slot with
   [dummy], an unsafe placeholder that is never read. *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ?(capacity = 16) () =
  let capacity = max 1 capacity in
  {
    prios = Array.make capacity 0.0;
    seqs = Array.make capacity 0;
    values = Array.make capacity (Obj.magic 0);
    size = 0;
    next_seq = 0;
    dummy = Obj.magic 0;
  }

let length t = t.size

let is_empty t = t.size = 0

(* Min-ordering on (prio, seq): FIFO among equal priorities. *)
let lt t i j =
  t.prios.(i) < t.prios.(j) || (t.prios.(i) = t.prios.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let p = t.prios.(i) in
  t.prios.(i) <- t.prios.(j);
  t.prios.(j) <- p;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let v = t.values.(i) in
  t.values.(i) <- t.values.(j);
  t.values.(j) <- v

let grow t =
  let cap = 2 * Array.length t.prios in
  let prios = Array.make cap 0.0 in
  Array.blit t.prios 0 prios 0 t.size;
  t.prios <- prios;
  let seqs = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  t.seqs <- seqs;
  let values = Array.make cap t.dummy in
  Array.blit t.values 0 values 0 t.size;
  t.values <- values

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if lt t i p then begin
      swap t i p;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && lt t l !smallest then smallest := l;
  if r < t.size && lt t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~prio value =
  if t.size = Array.length t.prios then grow t;
  t.prios.(t.size) <- prio;
  t.seqs.(t.size) <- t.next_seq;
  t.values.(t.size) <- value;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let push_at t ~prio ~seq value =
  if t.size = Array.length t.prios then grow t;
  t.prios.(t.size) <- prio;
  t.seqs.(t.size) <- seq;
  t.values.(t.size) <- value;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let top_seq t =
  if t.size = 0 then invalid_arg "Heap.top_seq: empty heap";
  t.seqs.(0)

let top t =
  if t.size = 0 then invalid_arg "Heap.top: empty heap";
  t.values.(0)

let top_prio t =
  if t.size = 0 then invalid_arg "Heap.top_prio: empty heap";
  t.prios.(0)

let drop_min t =
  if t.size = 0 then invalid_arg "Heap.drop_min: empty heap";
  let v = t.values.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.prios.(0) <- t.prios.(t.size);
    t.seqs.(0) <- t.seqs.(t.size);
    t.values.(0) <- t.values.(t.size)
  end;
  t.values.(t.size) <- t.dummy;
  if t.size > 0 then sift_down t 0;
  v

let pop t =
  if t.size = 0 then None
  else begin
    (* Bind the priority before [drop_min] replaces the root. *)
    let prio = t.prios.(0) in
    Some (prio, drop_min t)
  end

let peek t = if t.size = 0 then None else Some (t.prios.(0), t.values.(0))

let clear t =
  Array.fill t.values 0 t.size t.dummy;
  t.size <- 0;
  t.next_seq <- 0
