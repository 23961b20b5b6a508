(* Unit and property tests for the util substrate: PRNG, heap, sizing. *)

module Prng = Mdst_util.Prng
module Heap = Mdst_util.Heap
module Sizing = Mdst_util.Sizing

let check = Alcotest.(check bool)

(* ---------------- Prng ---------------- *)

let test_prng_determinism () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_differs_by_seed () =
  let a = Prng.create 7 and b = Prng.create 8 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check "streams differ" true (!same < 4)

let test_prng_copy_independent () =
  let a = Prng.create 3 in
  let b = Prng.copy a in
  let x = Prng.bits64 a in
  let y = Prng.bits64 b in
  Alcotest.(check int64) "copy starts at same point" x y;
  ignore (Prng.bits64 a);
  (* advancing a must not affect b *)
  let c = Prng.copy b in
  Alcotest.(check int64) "b unchanged by a" (Prng.bits64 b) (Prng.bits64 c)

let test_prng_split_independent () =
  let a = Prng.create 11 in
  let child = Prng.split a in
  let xs = List.init 32 (fun _ -> Prng.bits64 a) in
  let ys = List.init 32 (fun _ -> Prng.bits64 child) in
  check "split streams differ" true (xs <> ys)

let test_int_bounds () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 7 in
    check "in range" true (v >= 0 && v < 7)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in rng (-3) 3 in
    check "int_in range" true (v >= -3 && v <= 3)
  done

let test_int_rejects_bad_bounds () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0));
  Alcotest.check_raises "lo > hi" (Invalid_argument "Prng.int_in: lo > hi") (fun () ->
      ignore (Prng.int_in rng 4 2))

let test_float_bounds () =
  let rng = Prng.create 9 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    check "float range" true (v >= 0.0 && v < 2.5)
  done

(* Reference SplitMix64 on Int64, straight from Steele-Lea-Flood.  The
   shipped implementation carries the state as two 32-bit native-int limbs
   (no Int64 boxing on the hot path); every replay trace and golden round
   count depends on the limb pipeline staying bit-exact with this. *)
module Ref64 = struct
  type t = { mutable state : int64 }

  let mix64 z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let create seed = { state = mix64 (Int64.of_int seed) }

  let bits64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    mix64 t.state
end

let test_prng_matches_int64_reference () =
  (* Seeds exercising sign extension, carry chains and large magnitudes. *)
  let seeds = [ 0; 1; -1; 42; -7; 0xbe2c; max_int; min_int; 0x7ABC_1234_5678; -123456789 ] in
  List.iter
    (fun seed ->
      let a = Prng.create seed and r = Ref64.create seed in
      for i = 1 to 10_000 do
        let x = Prng.bits64 a and y = Ref64.bits64 r in
        if x <> y then
          Alcotest.failf "seed %d draw %d: limb %Lx <> reference %Lx" seed i x y
      done)
    seeds

let test_prng_split_matches_reference () =
  (* split = mix64 of the next raw output, on every lineage. *)
  let a = Prng.create 2009 and r = Ref64.create 2009 in
  for _ = 1 to 100 do
    let child = Prng.split a in
    let expected = { Ref64.state = Ref64.mix64 (Ref64.bits64 r) } in
    for _ = 1 to 16 do
      Alcotest.(check int64) "child stream" (Ref64.bits64 expected) (Prng.bits64 child)
    done
  done

let test_float_of_seed_matches_stream () =
  (* The allocation-free hash used by the latency hot path must equal the
     first draw of a fresh stream seeded the same way. *)
  List.iter
    (fun seed ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "seed %d" seed)
        (Prng.float (Prng.create seed) 1.0)
        (Prng.float_of_seed seed))
    [ 0; 1; 42; -7; 123456789; max_int ]

let test_bernoulli_extremes () =
  let rng = Prng.create 2 in
  for _ = 1 to 100 do
    check "p=0 never" false (Prng.bernoulli rng 0.0)
  done;
  for _ = 1 to 100 do
    check "p=1 always" true (Prng.bernoulli rng 1.0)
  done

let test_bernoulli_rate () =
  let rng = Prng.create 13 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check "rate near 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_exponential_positive () =
  let rng = Prng.create 4 in
  for _ = 1 to 1000 do
    check "positive" true (Prng.exponential rng 2.0 >= 0.0)
  done

let test_exponential_mean () =
  let rng = Prng.create 6 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential rng 2.0
  done;
  let mean = !sum /. float_of_int n in
  check "mean near 1/rate" true (abs_float (mean -. 0.5) < 0.02)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (small_list small_int))
    (fun (seed, xs) ->
      let a = Array.of_list xs in
      Prng.shuffle (Prng.create seed) a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let prop_sample_without_replacement =
  QCheck.Test.make ~name:"sample_without_replacement: distinct, sorted, in range" ~count:200
    QCheck.(pair small_int (pair (int_bound 20) (int_bound 20)))
    (fun (seed, (a, b)) ->
      let k = min a b and n = max a b in
      let s = Prng.sample_without_replacement (Prng.create seed) k n in
      List.length s = k
      && List.sort_uniq compare s = s
      && List.for_all (fun v -> v >= 0 && v < n) s)

let test_seed_of_string_stable () =
  Alcotest.(check int) "stable" (Prng.seed_of_string "hello") (Prng.seed_of_string "hello");
  check "different strings differ" true
    (Prng.seed_of_string "hello" <> Prng.seed_of_string "world")

(* Pinned FNV-1a values: experiment seeds are derived from these strings,
   so a silent change here silently changes every named workload. *)
let test_seed_of_string_golden () =
  List.iter
    (fun (s, want) -> Alcotest.(check int) s want (Prng.seed_of_string s))
    [
      ("", -3750763034362895579);
      ("hello", 2607821981565500683);
      ("mdst", 4066404816837655011);
      ("E1", 647105507010916579);
      ("convergence", 1183647922022721582);
    ]

let test_prng_split_1k_distinct () =
  (* Fan-out experiments hand every worker a split child; a colliding pair
     would silently run two "independent" samples on the same stream. *)
  let parent = Prng.create 20090525 in
  let streams =
    List.init 1000 (fun _ ->
        let c = Prng.split parent in
        List.init 4 (fun _ -> Prng.bits64 c))
  in
  Alcotest.(check int) "1000 pairwise-distinct child streams" 1000
    (List.length (List.sort_uniq compare streams))

(* ---------------- Heap ---------------- *)

let test_heap_basic () =
  let h = Heap.create () in
  check "empty" true (Heap.is_empty h);
  Heap.push h ~prio:3.0 "c";
  Heap.push h ~prio:1.0 "a";
  Heap.push h ~prio:2.0 "b";
  Alcotest.(check int) "length" 3 (Heap.length h);
  Alcotest.(check (option (pair (float 0.0) string))) "peek" (Some (1.0, "a")) (Heap.peek h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop a" (Some (1.0, "a")) (Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop b" (Some (2.0, "b")) (Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop c" (Some (3.0, "c")) (Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop empty" None (Heap.pop h)

let test_heap_fifo_on_ties () =
  let h = Heap.create () in
  List.iter (fun s -> Heap.push h ~prio:1.0 s) [ "first"; "second"; "third" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string)) "insertion order among ties" [ "first"; "second"; "third" ] order

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h ~prio:1.0 1;
  Heap.clear h;
  check "cleared" true (Heap.is_empty h)

(* Retention: the heap must not pin popped/removed values in its backing
   array.  Values are tracked through weak pointers; after the structural
   operation and a full major collection the weak slots must be empty. *)

let heap_fill h w k =
  (* Separate function so no local reference to a pushed value survives in
     the caller's frame. *)
  for i = 0 to k - 1 do
    let v = ref i in
    Weak.set w i (Some v);
    Heap.push h ~prio:(float_of_int i) v
  done

let heap_drain h =
  let rec go () = match Heap.pop h with None -> () | Some _ -> go () in
  go ()

let weak_live w =
  let live = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr live
  done;
  !live

let test_heap_pop_releases () =
  let h = Heap.create ~capacity:4 () in
  let w = Weak.create 8 in
  heap_fill h w 8;
  heap_drain h;
  Gc.full_major ();
  Alcotest.(check int) "no popped value retained" 0 (weak_live w);
  (* The emptied heap must still work. *)
  Heap.push h ~prio:1.0 (ref 42);
  Alcotest.(check int) "heap usable after drain" 1 (Heap.length h)

let test_heap_clear_releases () =
  let h = Heap.create ~capacity:4 () in
  let w = Weak.create 8 in
  heap_fill h w 8;
  Heap.clear h;
  Gc.full_major ();
  let live = weak_live w in
  Alcotest.(check int) "heap empty but alive" 0 (Heap.length h);
  Alcotest.(check int) "no cleared value retained" 0 live

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing priority order" ~count:300
    QCheck.(small_list (float_bound_inclusive 100.0))
    (fun prios ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h ~prio:p p) prios;
      let rec drain acc = match Heap.pop h with None -> List.rev acc | Some (p, _) -> drain (p :: acc) in
      let out = drain [] in
      out = List.sort compare prios)

let prop_heap_grows =
  QCheck.Test.make ~name:"heap survives growth beyond initial capacity" ~count:50
    QCheck.(int_range 1 200)
    (fun n ->
      let h = Heap.create ~capacity:1 () in
      for i = n downto 1 do
        Heap.push h ~prio:(float_of_int i) i
      done;
      let rec drain last ok =
        match Heap.pop h with
        | None -> ok
        | Some (p, _) -> drain p (ok && p >= last)
      in
      drain neg_infinity true)

(* ---------------- Parallel ---------------- *)

module Parallel = Mdst_util.Parallel

let test_parallel_preserves_order () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int)) "order kept" (List.map (fun x -> x * x) xs)
    (Parallel.map ~domains:4 (fun x -> x * x) xs)

let test_parallel_empty_and_single () =
  Alcotest.(check (list int)) "empty" [] (Parallel.map ~domains:4 (fun x -> x) []);
  Alcotest.(check (list int)) "single" [ 42 ] (Parallel.map ~domains:4 (fun x -> x) [ 42 ])

let test_parallel_sequential_equiv () =
  let xs = List.init 37 (fun i -> i * 3) in
  let f x = (x * 7) mod 13 in
  Alcotest.(check (list int)) "domains=1 equals domains=4"
    (Parallel.map ~domains:1 f xs)
    (Parallel.map ~domains:4 f xs)

exception Boom

let test_parallel_propagates_exception () =
  check "exception re-raised" true
    (try
       ignore (Parallel.map ~domains:3 (fun x -> if x = 5 then raise Boom else x) (List.init 10 Fun.id));
       false
     with Boom -> true)

let test_parallel_real_work () =
  (* Independent seeded PRNG streams: parallel and sequential must agree. *)
  let f seed =
    let rng = Prng.create seed in
    let acc = ref 0 in
    for _ = 1 to 1000 do
      acc := !acc + Prng.int rng 100
    done;
    !acc
  in
  let seeds = List.init 12 (fun i -> i * 17) in
  Alcotest.(check (list int)) "deterministic under parallelism"
    (List.map f seeds)
    (Parallel.map ~domains:4 f seeds)

let test_parallel_domains1_no_spawn () =
  (* The domains=1 fast path must run everything on the caller's domain —
     benchmarks and tests rely on it having zero spawn overhead. *)
  let self = Domain.self () in
  let ids = Parallel.map ~domains:1 (fun _ -> Domain.self ()) (List.init 20 Fun.id) in
  check "no spawned domain at domains=1" true (List.for_all (fun d -> d = self) ids)

exception Boom_at of int

let test_parallel_exception_from_spawned_domain () =
  (* Rendezvous forces the two tasks onto two distinct domains: the first
     executor blocks inside f until the second has started, so the second
     necessarily runs on the other domain.  Both raise; the Err cells must
     survive the join and re-raise in the caller (earliest input index
     wins — results are scanned in order). *)
  let turn = Atomic.make 0 in
  let doms = Array.make 2 None in
  (try
     ignore
       (Parallel.map ~domains:2
          (fun i ->
            let me = Atomic.fetch_and_add turn 1 in
            doms.(me) <- Some (Domain.self ());
            if me = 0 then
              while Atomic.get turn < 2 do
                Domain.cpu_relax ()
              done;
            raise (Boom_at i))
          [ 0; 1 ]);
     Alcotest.fail "expected Boom_at to propagate"
   with Boom_at i -> Alcotest.(check int) "earliest input index re-raised" 0 i);
  check "tasks ran on two distinct domains" true (doms.(0) <> doms.(1) && doms.(1) <> None)

(* ---------------- Heap.push_at ---------------- *)

let test_heap_push_at_tiebreak () =
  let h = Heap.create () in
  Heap.push_at h ~prio:1.0 ~seq:50 "late";
  Heap.push_at h ~prio:1.0 ~seq:7 "early";
  Heap.push_at h ~prio:0.5 ~seq:99 "first";
  Alcotest.(check int) "top_seq reads the minimum's seq" 99 (Heap.top_seq h);
  let pop_v () = match Heap.pop h with Some (_, v) -> v | None -> Alcotest.fail "empty" in
  Alcotest.(check string) "smallest prio first" "first" (pop_v ());
  Alcotest.(check string) "smaller seq breaks the tie" "early" (pop_v ());
  Alcotest.(check string) "larger seq last" "late" (pop_v ())

let test_heap_push_at_oracle () =
  (* Stress against a sorted-list oracle: few distinct priorities (lots of
     ties) with caller-supplied sequence numbers in shuffled insertion
     order — pops must come out in exact (prio, seq) order regardless of
     when each entry was pushed. *)
  let rng = Prng.create 0x4ea9 in
  for _round = 1 to 40 do
    let n = 1 + Prng.int rng 200 in
    let entries =
      List.init n (fun i -> (float_of_int (Prng.int rng 6), i))
    in
    let shuffled = Array.of_list entries in
    Prng.shuffle rng shuffled;
    let h = Heap.create ~capacity:4 () in
    Array.iter (fun (prio, seq) -> Heap.push_at h ~prio ~seq (prio, seq)) shuffled;
    let oracle = List.sort compare entries in
    let popped =
      List.init n (fun _ ->
          match Heap.pop h with Some (_, v) -> v | None -> Alcotest.fail "heap ran dry")
    in
    check "pops in (prio, seq) order" true (popped = oracle)
  done

let test_heap_push_at_releases () =
  (* Same vacated-slot guarantee as push/pop: nothing popped stays
     reachable from the backing array. *)
  let h = Heap.create ~capacity:4 () in
  let w = Weak.create 8 in
  let fill () =
    for i = 0 to 7 do
      let v = ref i in
      Weak.set w i (Some v);
      Heap.push_at h ~prio:(float_of_int (i / 2)) ~seq:(7 - i) v
    done
  in
  fill ();
  heap_drain h;
  Gc.full_major ();
  Alcotest.(check int) "no popped value retained" 0 (weak_live w);
  Heap.push_at h ~prio:1.0 ~seq:0 (ref 42);
  Alcotest.(check int) "heap usable after drain" 1 (Heap.length h)

(* ---------------- Mailbox ---------------- *)

module Mailbox = Mdst_util.Mailbox

let test_mailbox_fifo () =
  let mb = Mailbox.create ~capacity:8 () in
  for i = 0 to 5 do
    check "push accepted" true (Mailbox.try_push mb i)
  done;
  Alcotest.(check int) "length" 6 (Mailbox.length mb);
  for i = 0 to 5 do
    Alcotest.(check (option int)) "FIFO order" (Some i) (Mailbox.try_pop mb)
  done;
  Alcotest.(check (option int)) "empty after drain" None (Mailbox.try_pop mb);
  check "is_empty" true (Mailbox.is_empty mb)

let test_mailbox_capacity_and_backpressure () =
  let mb = Mailbox.create ~capacity:3 () in
  Alcotest.(check int) "capacity rounds up to a power of two" 4 (Mailbox.capacity mb);
  for i = 0 to 3 do
    check "fills to capacity" true (Mailbox.try_push mb i)
  done;
  check "full ring refuses" false (Mailbox.try_push mb 99);
  Alcotest.(check (option int)) "pop frees a slot" (Some 0) (Mailbox.try_pop mb);
  check "push succeeds after pop" true (Mailbox.try_push mb 4);
  check "bad capacity rejected" true
    (try
       ignore (Mailbox.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

let test_mailbox_pop_clears_slot () =
  let mb = Mailbox.create ~capacity:4 () in
  let w = Weak.create 4 in
  let fill () =
    for i = 0 to 3 do
      let v = ref i in
      Weak.set w i (Some v);
      ignore (Mailbox.try_push mb v)
    done
  in
  fill ();
  for _ = 0 to 3 do
    ignore (Mailbox.try_pop mb)
  done;
  Gc.full_major ();
  Alcotest.(check int) "vacated slots cleared" 0 (weak_live w);
  check "ring still usable" true (Mailbox.try_push mb (ref 9))

let test_mailbox_cross_domain () =
  (* The SPSC contract end to end: one producer domain, the caller
     consuming, a ring far smaller than the stream so wrap-around and the
     full/empty transitions are exercised thousands of times. *)
  let mb = Mailbox.create ~capacity:16 () in
  let total = 20_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to total - 1 do
          while not (Mailbox.try_push mb i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let next = ref 0 in
  let ok = ref true in
  while !next < total do
    match Mailbox.try_pop mb with
    | Some v ->
        if v <> !next then ok := false;
        incr next
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check "stream arrived complete and in order" true !ok;
  check "drained" true (Mailbox.is_empty mb)

(* ---------------- Intset ---------------- *)

module Intset = Mdst_util.Intset

let test_intset_basic () =
  let s = Intset.of_list [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  Alcotest.(check int) "cardinal dedups" 7 (Intset.cardinal s);
  check "mem 4" true (Intset.mem 4 s);
  check "mem 7" false (Intset.mem 7 s);
  check "mem negative absent" false (Intset.mem (-1) s);
  Alcotest.(check (list int)) "elements sorted" [ 1; 2; 3; 4; 5; 6; 9 ] (Intset.elements s);
  check "empty" true (Intset.is_empty Intset.empty);
  Alcotest.(check int) "singleton" 1 (Intset.cardinal (Intset.singleton 0));
  (* Negative keys (corrupt ids) must round-trip too. *)
  let neg = Intset.of_list [ -5; 3; -1 ] in
  check "mem -5" true (Intset.mem (-5) neg);
  Alcotest.(check int) "neg cardinal" 3 (Intset.cardinal neg)

let test_intset_canonical () =
  (* Patricia tries are canonical: insertion order must not matter for
     structural equality (messages carrying visited-sets are compared
     with polymorphic equality in tests and reproducers). *)
  let a = Intset.of_list [ 1; 2; 3; 4; 5 ] in
  let b = Intset.of_list [ 5; 3; 1; 4; 2 ] in
  check "structural equality" true (a = b);
  check "add existing is physically same" true (Intset.add 3 a == a)

let prop_intset_model =
  QCheck.Test.make ~name:"intset agrees with list model" ~count:300
    QCheck.(list (int_range (-100) 100))
    (fun xs ->
      let s = Intset.of_list xs in
      let model = List.sort_uniq compare xs in
      Intset.elements s = model
      && Intset.cardinal s = List.length model
      && List.for_all (fun x -> Intset.mem x s) model
      && not (Intset.mem 101 s))

(* ---------------- Sizing ---------------- *)

let test_sizing () =
  Alcotest.(check int) "log2 16" 4 (Sizing.bits_for_card 16);
  Alcotest.(check int) "log2 17" 5 (Sizing.bits_for_card 17);
  Alcotest.(check int) "log2 1" 1 (Sizing.bits_for_card 1);
  Alcotest.(check int) "id bits" 5 (Sizing.id_bits ~n:20);
  check "list bits grow with count" true
    (Sizing.list_bits ~n:16 8 10 > Sizing.list_bits ~n:16 8 2)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_prng_differs_by_seed;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int rejects bad bounds" `Quick test_int_rejects_bad_bounds;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "float_of_seed matches stream" `Quick test_float_of_seed_matches_stream;
          Alcotest.test_case "matches Int64 reference" `Quick test_prng_matches_int64_reference;
          Alcotest.test_case "split matches reference" `Quick test_prng_split_matches_reference;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "seed_of_string stable" `Quick test_seed_of_string_stable;
          Alcotest.test_case "seed_of_string golden" `Quick test_seed_of_string_golden;
          Alcotest.test_case "split: 1000 children distinct" `Quick test_prng_split_1k_distinct;
          q prop_shuffle_is_permutation;
          q prop_sample_without_replacement;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic;
          Alcotest.test_case "fifo on ties" `Quick test_heap_fifo_on_ties;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "pop releases values" `Quick test_heap_pop_releases;
          Alcotest.test_case "clear releases values" `Quick test_heap_clear_releases;
          Alcotest.test_case "push_at tie-break" `Quick test_heap_push_at_tiebreak;
          Alcotest.test_case "push_at vs sorted-list oracle" `Quick test_heap_push_at_oracle;
          Alcotest.test_case "push_at releases popped values" `Quick test_heap_push_at_releases;
          q prop_heap_sorts;
          q prop_heap_grows;
        ] );
      ( "intset",
        [
          Alcotest.test_case "basic membership" `Quick test_intset_basic;
          Alcotest.test_case "canonical equality" `Quick test_intset_canonical;
          q prop_intset_model;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "order preserved" `Quick test_parallel_preserves_order;
          Alcotest.test_case "empty/single" `Quick test_parallel_empty_and_single;
          Alcotest.test_case "sequential equivalence" `Quick test_parallel_sequential_equiv;
          Alcotest.test_case "exception propagation" `Quick test_parallel_propagates_exception;
          Alcotest.test_case "deterministic real work" `Quick test_parallel_real_work;
          Alcotest.test_case "domains=1 never spawns" `Quick test_parallel_domains1_no_spawn;
          Alcotest.test_case "exception from spawned domain" `Quick
            test_parallel_exception_from_spawned_domain;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "FIFO order" `Quick test_mailbox_fifo;
          Alcotest.test_case "capacity + backpressure" `Quick
            test_mailbox_capacity_and_backpressure;
          Alcotest.test_case "pop clears the slot" `Quick test_mailbox_pop_clears_slot;
          Alcotest.test_case "cross-domain stream" `Quick test_mailbox_cross_domain;
        ] );
      ("sizing", [ Alcotest.test_case "bit accounting" `Quick test_sizing ]);
    ]
