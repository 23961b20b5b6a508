(* The one discrete-event engine; pengine.mli states the contract (trace
   identity across shard counts, round accounting, the daemons).

   With [k > 1], [run_window] runs one shard per domain; cross-shard sends
   travel through bounded SPSC mailboxes ({!Mdst_util.Mailbox}) and the
   shards synchronise by the classic conservative protocol, its null
   messages collapsed into one published clock per shard
   ({!Shard.Clocks}).  Every latency model has a positive minimum delay d
   (the lookahead): a shard whose clock reads [P] cannot cause a delivery
   before [P + d].  A shard repeatedly (1) reads the clocks of the shards
   with an edge into it, taking the minimum [hmin], (2) drains its
   inboxes, (3) executes heap events strictly below
   [B = min (hmin + d) window_end], (4) publishes
   [min next_local_event (hmin + d)].  Read -> drain -> execute -> publish
   makes [B] sound: a message timestamped below [hmin + d] was pushed
   before its sender's clock was read, so step (2) sees it.  Progress: the
   least published clock rises by at least d per round of passes.

   Everything else runs on the caller between windows, over all shard
   heaps, in the same [(time, key)] order. *)

module Prng = Mdst_util.Prng
module Heap = Mdst_util.Heap
module Mailbox = Mdst_util.Mailbox
module Graph = Mdst_graph.Graph
module Partition = Mdst_graph.Partition

let fifo_epsilon = 1e-6

type observation =
  | Obs_tick of { node : int; round : int; time : float }
  | Obs_deliver of { src : int; dst : int; label : string; round : int; time : float }
  | Obs_fault of { kind : string; detail : string; round : int; time : float }

let with_round obs round =
  match obs with
  | Obs_tick o -> Obs_tick { o with round }
  | Obs_deliver o -> Obs_deliver { o with round }
  | Obs_fault o -> Obs_fault { o with round }

module Make (A : Node.AUTOMATON) = struct
  (* One event.  Single-level on purpose: one is allocated per simulated
     send or tick, so an extra wrapper block would be a visible slice of
     the protocol benchmark's allocations.  A delivery carries its place
     in the [(time, key)] order and is a link of its channel's queue; a
     tick's place is kept in its node's slot ([tick_at], [tick_key]). *)
  type tagged =
    | Tick of { node : int; tag : int }
    | Deliver of { ch : chan; msg : A.msg; tag : int; at : float; key : int; mutable next : tagged }

  (* One ordered channel's in-flight deliveries as a linked queue in
     [(time, key)] order (not send order: a reorder fault bypasses the
     FIFO floor), written only by shard part.(dst). *)
  and chan = {
    src : int;
    dst : int;
    mutable first : tagged;  (* [nil] when empty *)
    mutable last : tagged;
  }

  let nil = Tick { node = -1; tag = 0 }

  (* An observation made inside a parallel window, held until the barrier;
     [o_tag] is the causal round of the event it belongs to. *)
  type note = { o_time : float; o_key : int; o_tag : int; o_obs : observation }

  type shard = {
    sid : int;
    heap : tagged Heap.t;
    mutable seq : int;  (* creation counter; feeds Shard.key *)
    mutable now : float;
    mutable current_tag : int;  (* causal round of the event being executed *)
    mutable current_key : int;
    mutable rounds : int;
    mutable deliveries : int;
    mutable executed : int;
    metrics : Metrics.t;  (* per-shard: the hot path never contends *)
    in_shards : int array;  (* shards with a cut edge into us *)
    inboxes : tagged Mailbox.t array;  (* slot s' = ring written by shard s' *)
    mutable stale : int;  (* heap entries no longer eligible (see [skip_stale]) *)
    mutable notes : note list;  (* observations of the current window; reversed *)
    mutable fstats : Fault.stats;
    mutable tampered_until : float;
  }

  (* An installed Fault.plan.  Channel events are indexed by ordered
     channel ([src * n + dst]); the table is frozen after install, and
     each channel is only consulted by its source node's shard.
     Scheduled events form a round-ordered queue.  Each event carries its
     private PRNG stream, so decisions never touch the engine's streams
     and survive deletion of sibling events (shrinking). *)
  type faults = {
    by_channel : (int, (Fault.event * Prng.t) list) Hashtbl.t;  (* in plan order *)
    mutable pending : (int * Fault.event * Prng.t) list;  (* sorted by round *)
    fremap : old_graph:Graph.t -> new_graph:Graph.t -> A.state array -> A.state array;
    last_window : int;  (* latest round any channel event is open *)
  }

  type choice = Choose_tick of { node : int } | Choose_deliver of { src : int; dst : int }

  type t = {
    mutable graph : Graph.t;
    latency : Latency.t;
    (* Cached [Latency.uniform_params]: when the model is the plain
       uniform, [enqueue_raw] inlines the draw — same generator step,
       bit-identical float arithmetic — instead of paying the closure
       call's float boxing on every send. *)
    lat_uniform : bool;
    lat_lo : float;
    lat_span : float;
    tick_period : float;
    lookahead : float;  (* Latency.min_delay; must be > 0 *)
    rng : Prng.t;  (* root stream: create, corrupt, reset_node *)
    k : int;
    part : int array;  (* node -> shard *)
    shards : shard array;
    clocks : Shard.Clocks.t;
    states : A.state array;
    ctxs : A.msg Node.ctx array;
    lat_rngs : Prng.t array;  (* per-node latency streams *)
    armed : tagged array;  (* each node's one armed tick ... *)
    tick_at : float array;  (* ... its time ... *)
    tick_key : int array;  (* ... and key *)
    mutable chans : chan array array;
        (* chans.(src).(k): the channel from [src] to its k-th neighbour
           (same order as [Graph.neighbors]), so a walk over [chans] is in
           [(src * n) + dst] order. *)
    mutable fifo_floor : float array array;
        (* fifo_floor.(src).(k): that channel's FIFO floor, written only
           by shard part.(src); kept apart from [chans] so that a send
           stores it unboxed and a channel costs no extra block. *)
    mutable menu : choice array;
        (* [step_with]'s choice per tick, then per channel in [chans]
           order; built on first use. *)
    mutable indexed : bool;  (* the heaps hold every eligible event (see [collect]) *)
    mutable picks : choice array array;
        (* picks.(len): the array [step_with] hands [choose] when [len]
           events are eligible, reused from pick to pick.  At ER n=64 such
           an array lives in the major heap: a fresh one per pick made a
           uniform pick cost 14-20 us instead of 2-3 us (the [engine:]
           tests of bench/main.ml). *)
    mutable running : bool;  (* inside a parallel window: route via mailboxes *)
    mutable horizon : float;  (* virtual time the run is complete up to *)
    mutable poisoned : bool;  (* a window died; the state is not trustworthy *)
    mutable faults : faults option;
    mutable windows_closed : bool;  (* see [faults_pending] *)
    mutable observer : (observation -> unit) option;
    abort : bool Atomic.t;
    done_count : int Atomic.t;
    failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  }

  type init =
    [ `Clean
    | `Random
    | `Custom of A.msg Node.ctx -> Prng.t -> A.state ]

  exception Aborted
  (* Internal: a peer shard failed; unwind this worker quietly. *)

  let tag_ev = function Tick { tag; _ } | Deliver { tag; _ } -> tag

  (* Delivery [a] comes before delivery [b] in the [(time, key)] order. *)
  let before a b =
    match (a, b) with
    | Deliver x, Deliver y -> x.at < y.at || (x.at = y.at && x.key < y.key)
    | _ -> false

  let rounds t =
    if t.k = 1 then t.shards.(0).rounds
    else Array.fold_left (fun acc sh -> max acc sh.rounds) 0 t.shards

  (* Outside a parallel window every new event is numbered by shard 0, so
     sequential driving numbers events in creation order whatever [k]. *)
  let fresh_key t sh =
    let owner = if t.running then sh else t.shards.(0) in
    let key = Shard.key ~shard:owner.sid ~seq:owner.seq in
    owner.seq <- owner.seq + 1;
    key

  (* An observation of the event [sh] is executing (or of a fault it
     triggers): straight to the observer, or held for the barrier while a
     parallel window runs. *)
  let emit t sh f obs =
    if t.running && t.k > 1 then
      sh.notes <-
        { o_time = sh.now; o_key = sh.current_key; o_tag = sh.current_tag; o_obs = obs }
        :: sh.notes
    else f (with_round obs (rounds t))

  (* [detail] is a thunk: fault labels are only materialized when a fault
     actually fires AND someone is listening. *)
  let note t sh ~kind ~detail =
    match t.observer with
    | Some f -> emit t sh f (Obs_fault { kind; detail = detail (); round = 0; time = sh.now })
    | None -> ()

  (* Slot of [dst] in the sorted neighbour array of [src]. *)
  let slot_in graph src dst =
    let nbs = Graph.neighbors graph src in
    let lo = ref 0 and hi = ref (Array.length nbs - 1) in
    let found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let v = Array.unsafe_get nbs mid in
      if v = dst then found := mid else if v < dst then lo := mid + 1 else hi := mid - 1
    done;
    if !found < 0 then
      invalid_arg (Printf.sprintf "Pengine: %d -> %d is not a channel" src dst);
    !found

  let chan t src dst = t.chans.(src).(slot_in t.graph src dst)

  let new_chan src dst = { src; dst; first = nil; last = nil }

  let next = function Deliver d -> d.next | Tick _ -> nil
  let set_next ev v = match ev with Deliver d -> d.next <- v | Tick _ -> ()

  let iter_queue ch f =
    let ev = ref ch.first in
    while !ev != nil do
      f !ev;
      ev := next !ev
    done

  let iter_chans t f =
    for src = 0 to Array.length t.chans - 1 do
      let out = t.chans.(src) in
      for k = 0 to Array.length out - 1 do
        f out.(k)
      done
    done

  (* Insert a delivery into its channel's queue: a tail append unless a
     reorder fault sent it ahead of queued traffic. *)
  let push_chan ch ev =
    if ch.first == nil then begin
      ch.first <- ev;
      ch.last <- ev
    end
    else if before ch.last ev then begin
      set_next ch.last ev;
      ch.last <- ev
    end
    else if before ev ch.first then begin
      set_next ev ch.first;
      ch.first <- ev
    end
    else begin
      let p = ref ch.first in
      while before (next !p) ev do
        p := next !p
      done;
      set_next ev (next !p);
      set_next !p ev
    end

  (* The eligible set is engine state: each node's armed tick and each
     channel's head.  The shard heaps order the same events by
     [(time, key)] for [step] and the windows.  An event that leaves the
     set other than by being popped (a pick, a purge, a vanished edge)
     stays in its heap as a stale entry, skipped when it reaches the top:
     a live top is always its channel's head, since the channel's earlier
     messages sit in the same heap. *)
  let is_eligible t ev =
    match ev with
    | Tick { node; _ } -> t.armed.(node) == ev
    | Deliver { ch; _ } -> ch.first == ev

  let skip_stale t sh =
    while (not (Heap.is_empty sh.heap)) && not (is_eligible t (Heap.top sh.heap)) do
      ignore (Heap.drop_min sh.heap);
      sh.stale <- sh.stale - 1
    done

  (* Once stale entries outnumber live ones — a long pick-driven run —
     the heaps are emptied, and nothing enters them until the next [step]
     or window rebuilds them from the tick slots and the channel queues
     ([reindex]).  Heap order is [(time, key)] alone, so the rebuild
     changes no order.  Keeping the heaps current through picks instead
     cost the synchronous daemon 10% of its time. *)
  let collect t =
    let stale = Array.fold_left (fun acc sh -> acc + sh.stale) 0 t.shards in
    let size = Array.fold_left (fun acc sh -> acc + Heap.length sh.heap) 0 t.shards in
    if 2 * stale > size + 64 then begin
      Array.iter
        (fun sh ->
          Heap.clear sh.heap;
          sh.stale <- 0)
        t.shards;
      t.indexed <- false
    end

  let reindex t =
    if not t.indexed then begin
      Array.iter (fun sh -> sh.stale <- 0) t.shards;
      Array.iteri
        (fun i ev ->
          Heap.push_at t.shards.(t.part.(i)).heap ~prio:t.tick_at.(i) ~seq:t.tick_key.(i) ev)
        t.armed;
      iter_chans t (fun ch ->
          iter_queue ch (function
            | Deliver { at; key; _ } as ev ->
                Heap.push_at t.shards.(t.part.(ch.dst)).heap ~prio:at ~seq:key ev
            | Tick _ -> ()));
      t.indexed <- true
    end

  let clear_chan t ch =
    let lost = ref 0 in
    iter_queue ch (fun _ -> incr lost);
    ch.first <- nil;
    ch.last <- nil;
    let sh = t.shards.(t.part.(ch.dst)) in
    sh.stale <- sh.stale + !lost;
    !lost

  (* A delivery enters its destination shard's heap and channel queue
     together. *)
  let schedule t sh ev =
    match ev with
    | Deliver { ch; at; key; _ } ->
        if t.indexed then Heap.push_at sh.heap ~prio:at ~seq:key ev;
        push_chan ch ev
    | Tick _ -> ()

  let arm t sh i ~at ~tag =
    let ev = Tick { node = i; tag } and key = fresh_key t sh in
    t.armed.(i) <- ev;
    t.tick_at.(i) <- at;
    t.tick_key.(i) <- key;
    if t.indexed then Heap.push_at sh.heap ~prio:at ~seq:key ev

  let drain_inboxes t sh =
    let got = ref false in
    Array.iter
      (fun s' ->
        let mb = sh.inboxes.(s') in
        let more = ref true in
        while !more do
          match Mailbox.try_pop mb with
          | Some ev ->
              got := true;
              schedule t sh ev
          | None -> more := false
        done)
      sh.in_shards;
    !got

  (* Backpressure without deadlock: while the receiver's ring is full we
     drain our OWN inboxes (so a peer blocked pushing to us can advance)
     and retry.  Drained events only enter the heap and their channel
     queues — everything arriving now is timestamped at or above our
     current execution bound, so the insertion cannot disturb an
     execution pass in progress. *)
  let push_remote t sh ds ev =
    let mb = t.shards.(ds).inboxes.(sh.sid) in
    if not (Mailbox.try_push mb ev) then begin
      let n = ref 0 in
      while not (Mailbox.try_push mb ev) do
        if Atomic.get t.abort then raise Aborted;
        ignore (drain_inboxes t sh);
        Shard.backoff !n;
        incr n
      done
    end

  (* [rng] (default: the sender's latency stream) feeds the latency draw;
     create and fault primitives pass their own stream so they do not
     shift the fault-free schedule. *)
  let enqueue_raw t sh ?extra_delay ?rng ~src ~dst msg =
    let rng = match rng with Some r -> r | None -> t.lat_rngs.(src) in
    let lat =
      if t.lat_uniform then
        (* Exactly [lo +. Prng.float rng (hi -. lo)], with the float kept
           unboxed end to end (Prng.raw53 returns an immediate). *)
        t.lat_lo +. (t.lat_span *. (float_of_int (Prng.raw53 rng) /. 9007199254740992.0))
      else Latency.sample t.latency rng ~src ~dst
    in
    let k = slot_in t.graph src dst in
    let arrival =
      match extra_delay with
      | None ->
          let floors = t.fifo_floor.(src) in
          let a = max (sh.now +. lat) (floors.(k) +. fifo_epsilon) in
          floors.(k) <- a;
          a
      (* [extra_delay = Some d] bypasses the FIFO floor: the delayed message
         may be overtaken by later sends on the same channel (reorder
         faults). *)
      | Some d -> sh.now +. lat +. d
    in
    Metrics.record_send sh.metrics ~label:(A.msg_label msg)
      ~bits:(A.msg_bits ~n:(Graph.n t.graph) msg);
    let ev =
      Deliver
        {
          ch = t.chans.(src).(k);
          msg;
          tag = sh.current_tag + 1;
          at = arrival;
          key = fresh_key t sh;
          next = nil;
        }
    in
    let ds = t.part.(dst) in
    if ds = sh.sid then schedule t sh ev
    else if t.running then push_remote t sh ds ev
    else schedule t t.shards.(ds) ev;
    arrival

  let in_window (w : Fault.window) round = w.from_round <= round && round <= w.upto_round

  (* A tampered message is adversarial state until delivered, even after
     its event's window closes: tampered enqueues extend the horizon
     behind [faults_pending]. *)
  let mark sh arrival = if arrival > sh.tampered_until then sh.tampered_until <- arrival

  (* The first channel event whose round window is open — and whose coin
     comes up — decides the fate of the message.  Kept out of [enqueue]
     so that an untampered send allocates no closure. *)
  let rec tamper ?rng t sh ~src ~dst msg events =
    let round = sh.current_tag in
    let chan () = Printf.sprintf "%d>%d" src dst in
    match events with
    | [] -> ignore (enqueue_raw t sh ?rng ~src ~dst msg)
    | (ev, erng) :: rest -> (
        let s = sh.fstats in
        match (ev : Fault.event) with
        | Drop f when in_window f.window round && Prng.bernoulli erng f.prob ->
            sh.fstats <- { s with Fault.drops = s.Fault.drops + 1 };
            note t sh ~kind:"drop" ~detail:chan
        | Duplicate f when in_window f.window round && Prng.bernoulli erng f.prob ->
            sh.fstats <- { s with Fault.duplicates = s.Fault.duplicates + 1 };
            note t sh ~kind:"dup" ~detail:(fun () -> Printf.sprintf "%s x%d" (chan ()) f.copies);
            for _ = 0 to f.copies do
              mark sh (enqueue_raw t sh ?rng ~src ~dst msg)
            done
        | Reorder f when in_window f.window round && Prng.bernoulli erng f.prob ->
            sh.fstats <- { s with Fault.reorders = s.Fault.reorders + 1 };
            note t sh ~kind:"reorder" ~detail:chan;
            mark sh (enqueue_raw t sh ~extra_delay:(Prng.float erng f.delay) ?rng ~src ~dst msg)
        | Corrupt f when in_window f.window round && Prng.bernoulli erng f.prob -> (
            match A.random_msg t.ctxs.(src) erng with
            | Some msg' ->
                sh.fstats <- { s with Fault.corruptions = s.Fault.corruptions + 1 };
                note t sh ~kind:"corrupt" ~detail:chan;
                mark sh (enqueue_raw t sh ?rng ~src ~dst msg')
            | None -> tamper ?rng t sh ~src ~dst msg rest)
        | _ -> tamper ?rng t sh ~src ~dst msg rest)

  (* Only events installed for this exact ordered channel are consulted
     (see [install_faults]). *)
  let enqueue ?rng t sh ~src ~dst msg =
    match t.faults with
    | None -> ignore (enqueue_raw t sh ?rng ~src ~dst msg)
    | Some fs -> (
        match Hashtbl.find_opt fs.by_channel ((src * Graph.n t.graph) + dst) with
        | None -> ignore (enqueue_raw t sh ?rng ~src ~dst msg)
        | Some events -> tamper ?rng t sh ~src ~dst msg events)

  let make_ctx t i =
    let sh = t.shards.(t.part.(i)) in
    let neighbors = Graph.neighbors t.graph i in
    {
      Node.node = i;
      id = Graph.id t.graph i;
      n = Graph.n t.graph;
      neighbors;
      neighbor_ids = Array.map (Graph.id t.graph) neighbors;
      send =
        (fun dst msg ->
          if not (Graph.mem_edge t.graph i dst) then
            invalid_arg (Printf.sprintf "Pengine: node %d sending to non-neighbour %d" i dst);
          enqueue t sh ~src:i ~dst msg);
      note_suppressed = (fun k -> Metrics.record_suppressed sh.metrics k);
      rng = Prng.create 0 (* replaced below *);
      now = (fun () -> sh.now);
    }

  let create ?(latency = Latency.uniform ()) ?(tick_period = 1.0) ?(seed = 42)
      ?(init = `Clean) ?partition ?(domains = 1) graph =
    let n = Graph.n graph in
    if n = 0 then invalid_arg "Pengine.create: empty graph";
    if domains <= 0 then invalid_arg "Pengine.create: domains must be positive";
    if domains > Shard.max_shards then
      invalid_arg
        (Printf.sprintf "Pengine.create: at most %d shards (key encoding)" Shard.max_shards);
    if not (Mdst_graph.Algo.is_connected graph) then
      invalid_arg "Pengine.create: graph must be connected";
    let lookahead = Latency.min_delay latency in
    if not (lookahead > 0.0) then
      invalid_arg "Pengine.create: latency model must declare a positive min_delay";
    let k = domains in
    let part =
      match partition with
      | Some p ->
          if not (Partition.validate graph p ~parts:k) then
            invalid_arg "Pengine.create: partition does not match graph/domains";
          Array.copy p
      | None -> if k = 1 then Array.make n 0 else Partition.blocks graph ~parts:k
    in
    let rng = Prng.create seed in
    let lat_lo, lat_span, lat_uniform =
      match Latency.uniform_params latency with
      | Some (lo, hi) -> (lo, hi -. lo, true)
      | None -> (0.0, 0.0, false)
    in
    let in_shards = if k = 1 then [| [||] |] else Shard.in_shards graph part ~k in
    let shards =
      Array.init k (fun s ->
          {
            sid = s;
            heap = Heap.create ~capacity:(max 16 (4 * n / k)) ();
            seq = 0;
            now = 0.0;
            current_tag = 0;
            current_key = 0;
            rounds = 0;
            deliveries = 0;
            executed = 0;
            metrics = Metrics.create ();
            in_shards = in_shards.(s);
            inboxes =
              Array.init k (fun s' -> Mailbox.create ~capacity:(if s' = s then 1 else 256) ());
            stale = 0;
            notes = [];
            fstats = Fault.zero_stats;
            tampered_until = neg_infinity;
          })
    in
    let t =
      {
        graph;
        latency;
        lat_uniform;
        lat_lo;
        lat_span;
        tick_period;
        lookahead;
        rng;
        k;
        part;
        shards;
        clocks = Shard.Clocks.create k;
        states = Array.make n (Obj.magic 0);
        ctxs = Array.make n (Obj.magic 0);
        lat_rngs = Array.make n rng (* replaced below *);
        armed = Array.make n nil;
        tick_at = Array.make n 0.0;
        tick_key = Array.make n 0;
        chans = Array.init n (fun src -> Array.map (new_chan src) (Graph.neighbors graph src));
        fifo_floor = Array.init n (fun u -> Array.make (Graph.degree graph u) neg_infinity);
        menu = [||];
        indexed = true;
        picks = [||];
        running = false;
        horizon = 0.0;
        poisoned = false;
        faults = None;
        windows_closed = false;
        observer = None;
        abort = Atomic.make false;
        done_count = Atomic.make 0;
        failure = Atomic.make None;
      }
    in
    for i = 0 to n - 1 do
      let ctx = make_ctx t i in
      t.ctxs.(i) <- { ctx with Node.rng = Prng.split rng }
    done;
    (* Initial states are installed without letting handlers send. *)
    for i = 0 to n - 1 do
      let state =
        match init with
        | `Clean -> A.init t.ctxs.(i)
        | `Random -> A.random_state t.ctxs.(i) (Prng.split rng)
        | `Custom f -> f t.ctxs.(i) (Prng.split rng)
      in
      t.states.(i) <- state
    done;
    (* Adversarial starts also corrupt channel contents. *)
    (match init with
    | `Random ->
        Graph.iter_edges graph (fun u v ->
            let inject_on src dst =
              let c = Prng.int rng 3 in
              for _ = 1 to c do
                match A.random_msg t.ctxs.(src) rng with
                | Some msg -> enqueue ~rng t t.shards.(part.(src)) ~src ~dst msg
                | None -> ()
              done
            in
            inject_on u v;
            inject_on v u)
    | `Clean | `Custom _ -> ());
    (* Arm the periodic timers with a random phase each. *)
    for i = 0 to n - 1 do
      arm t t.shards.(part.(i)) i ~at:(Prng.float rng tick_period) ~tag:1
    done;
    for i = 0 to n - 1 do
      t.lat_rngs.(i) <- Prng.split rng
    done;
    t

  (* ---------------------------------------------------------------- *)
  (* Execution. *)

  (* Run an eligible event: the top of its shard heap, or a pick. *)
  let execute t sh ev =
    (match ev with
    | Tick { node; tag } ->
        let time = t.tick_at.(node) in
        if time > sh.now then sh.now <- time;
        sh.current_tag <- tag;
        sh.current_key <- t.tick_key.(node)
    | Deliver { at; key; tag; _ } ->
        if at > sh.now then sh.now <- at;
        sh.current_tag <- tag;
        sh.current_key <- key);
    let tag = sh.current_tag in
    if tag > sh.rounds then sh.rounds <- tag;
    sh.executed <- sh.executed + 1;
    match ev with
    | Tick { node = i; _ } ->
        (match t.observer with
        | Some f -> emit t sh f (Obs_tick { node = i; round = tag; time = sh.now })
        | None -> ());
        t.states.(i) <- A.on_tick t.ctxs.(i) t.states.(i);
        Metrics.record_state_bits sh.metrics (A.state_bits ~n:(Graph.n t.graph) t.states.(i));
        arm t sh i ~at:(sh.now +. t.tick_period) ~tag:(tag + 1)
    | Deliver { ch; msg; next; _ } ->
        (* A live delivery is its channel's head. *)
        ch.first <- next;
        if next == nil then ch.last <- nil;
        (match t.observer with
        | Some f ->
            emit t sh f
              (Obs_deliver
                 { src = ch.src; dst = ch.dst; label = A.msg_label msg; round = tag; time = sh.now })
        | None -> ());
        sh.deliveries <- sh.deliveries + 1;
        Metrics.record_delivery sh.metrics;
        t.states.(ch.dst) <- A.on_message t.ctxs.(ch.dst) t.states.(ch.dst) ~src:ch.src msg

  (* Between windows every shard's clock reads the horizon, so a send
     from any node (an event's or [inject]'s) starts from the same now. *)
  let settle t sh =
    t.horizon <- sh.now;
    if t.k > 1 then Array.iter (fun s -> s.now <- t.horizon) t.shards

  (* One read -> drain -> execute -> publish pass; returns
     (made_progress, window_done). *)
  let shard_pass t sh ~until =
    let hmin = ref infinity in
    Array.iter
      (fun s' ->
        let c = Shard.Clocks.get t.clocks s' in
        if c < !hmin then hmin := c)
      sh.in_shards;
    ignore (drain_inboxes t sh);
    let bound = Float.min (!hmin +. t.lookahead) until in
    let progressed = ref false in
    skip_stale t sh;
    while (not (Heap.is_empty sh.heap)) && Heap.top_prio sh.heap < bound do
      execute t sh (Heap.drop_min sh.heap);
      progressed := true;
      skip_stale t sh
    done;
    let next_local = if Heap.is_empty sh.heap then infinity else Heap.top_prio sh.heap in
    Shard.Clocks.advance t.clocks sh.sid (Float.min next_local (!hmin +. t.lookahead));
    (!progressed, next_local >= until && !hmin +. t.lookahead >= until)

  let record_failure t e bt =
    ignore (Atomic.compare_and_set t.failure None (Some (e, bt)));
    Atomic.set t.abort true

  (* A whole shard-window on the calling domain.  After its own horizon
     closes, a shard keeps servicing its inboxes until every shard is done
     — a peer may still be pushing next-window traffic at us, and an
     abandoned full ring would block it forever. *)
  let worker t ~until s =
    let sh = t.shards.(s) in
    (try
       let idle = ref 0 in
       let running = ref true in
       while !running do
         if Atomic.get t.abort then raise Aborted;
         let progressed, done_ = shard_pass t sh ~until in
         if done_ then running := false
         else if progressed then idle := 0
         else begin
           incr idle;
           Shard.backoff !idle
         end
       done
     with
    | Aborted -> Shard.Clocks.infinity_ t.clocks sh.sid
    | e ->
        record_failure t e (Printexc.get_raw_backtrace ());
        Shard.Clocks.infinity_ t.clocks sh.sid);
    Atomic.incr t.done_count;
    let idle = ref 0 in
    while Atomic.get t.done_count < t.k && not (Atomic.get t.abort) do
      if drain_inboxes t sh then idle := 0 else incr idle;
      Shard.backoff !idle
    done

  (* The barrier's view of a window: every shard's notes in (time, key)
     order, the round counter recomputed along the merge. *)
  let flush_notes t ~round =
    match t.observer with
    | None -> ()
    | Some f ->
        let notes =
          List.concat_map
            (fun sh ->
              let l = List.rev sh.notes in
              sh.notes <- [];
              l)
            (Array.to_list t.shards)
          |> List.stable_sort (fun a b ->
                 let c = Float.compare a.o_time b.o_time in
                 if c <> 0 then c else compare a.o_key b.o_key)
        in
        let r = ref round in
        List.iter
          (fun o ->
            if o.o_tag > !r then r := o.o_tag;
            f (with_round o.o_obs !r))
          notes

  (* ---------------------------------------------------------------- *)
  (* Accessors (all single-threaded: call between windows only). *)

  let graph t = t.graph
  let state t i = t.states.(i)
  let states t = t.states
  let set_state t i s = t.states.(i) <- s
  let now t = t.horizon
  let deliveries t = Array.fold_left (fun acc sh -> acc + sh.deliveries) 0 t.shards
  let events t = Array.fold_left (fun acc sh -> acc + sh.executed) 0 t.shards
  let observe t f = t.observer <- Some f
  let unobserve t = t.observer <- None

  let metrics t =
    if t.k = 1 then t.shards.(0).metrics
    else begin
      let m = Metrics.create () in
      Array.iter (fun sh -> Metrics.merge_into ~into:m sh.metrics) t.shards;
      m
    end

  let pending_events t =
    if t.indexed then Array.fold_left (fun acc sh -> acc + Heap.length sh.heap - sh.stale) 0 t.shards
    else begin
      let msgs = ref 0 in
      iter_chans t (fun ch -> iter_queue ch (fun _ -> incr msgs));
      Array.length t.armed + !msgs
    end

  let in_flight t =
    let acc = ref [] in
    iter_chans t (fun ch ->
        iter_queue ch (function
          | Deliver { msg; _ } -> acc := (ch.src, ch.dst, msg) :: !acc
          | Tick _ -> ()));
    List.rev !acc

  (* ---------------------------------------------------------------- *)
  (* Control between windows. *)

  let inject_with ?rng t ~src ~dst msg =
    if not (Graph.mem_edge t.graph src dst) then invalid_arg "Pengine.inject: not adjacent";
    let sh = t.shards.(t.part.(src)) in
    let saved = sh.current_tag in
    sh.current_tag <- rounds t;
    enqueue ?rng t sh ~src ~dst msg;
    sh.current_tag <- saved

  let inject t ~src ~dst msg = inject_with t ~src ~dst msg

  let reset_node t ?rng mode i =
    let rng = match rng with Some r -> r | None -> t.rng in
    t.states.(i) <-
      (match mode with `Init -> A.init t.ctxs.(i) | `Random -> A.random_state t.ctxs.(i) rng)

  (* Queued messages are lost; the channel's FIFO floor is deliberately
     KEPT (see pengine.mli): later traffic stays ordered after the lost
     messages' arrival times, as on a real FIFO link that lost content. *)
  let purge_channel t ~src ~dst =
    if Graph.mem_edge t.graph src dst then clear_chan t (chan t src dst) else 0

  let reshape t ?(remap = fun ~old_graph:_ ~new_graph:_ states -> states) new_graph =
    if t.k > 1 then invalid_arg "Pengine.reshape: needs a single shard";
    if Graph.n new_graph <> Graph.n t.graph then
      invalid_arg "Pengine.reshape: node count must be preserved";
    if not (Mdst_graph.Algo.is_connected new_graph) then
      invalid_arg "Pengine.reshape: graph must stay connected";
    let old_graph = t.graph in
    (* Messages in flight on vanished edges are lost with the edge;
       surviving channels keep their queue and FIFO floor, and new
       channels (re-added ones too) start fresh. *)
    iter_chans t (fun ch ->
        if not (Graph.mem_edge new_graph ch.src ch.dst) then ignore (clear_chan t ch));
    let carry old fresh =
      Array.init (Graph.n new_graph) (fun u ->
          Array.map
            (fun v -> if Graph.mem_edge old_graph u v then old.(u).(slot_in old_graph u v) else fresh u v)
            (Graph.neighbors new_graph u))
    in
    t.chans <- carry t.chans new_chan;
    t.fifo_floor <- carry t.fifo_floor (fun _ _ -> neg_infinity);
    t.menu <- [||];
    t.graph <- new_graph;
    for i = 0 to Graph.n new_graph - 1 do
      let kept_rng = t.ctxs.(i).Node.rng in
      t.ctxs.(i) <- { (make_ctx t i) with Node.rng = kept_rng }
    done;
    let remapped = remap ~old_graph ~new_graph t.states in
    if remapped != t.states then Array.blit remapped 0 t.states 0 (Array.length t.states)

  let corrupt t ?(fraction = 1.0) ?(channels = false) () =
    let n = Graph.n t.graph in
    let k = max 1 (int_of_float (Float.round (fraction *. float_of_int n))) in
    let victims = Prng.sample_without_replacement t.rng (min k n) n in
    (* One split stream per victim feeds its state corruption AND (with
       [channels]) its injected payloads and their latency draws, so the
       root stream advances by exactly [k] splits either way — the
       post-corruption schedule does not depend on whether channel
       corruption was requested. *)
    List.iter
      (fun i ->
        let vrng = Prng.split t.rng in
        t.states.(i) <- A.random_state t.ctxs.(i) vrng;
        if channels then begin
          (* Mutant "corrupt-shared-stream" reintroduces the historical
             coupling this split-stream design removed: payload and latency
             draws coming from the root stream, shifting the
             post-corruption schedule when channel corruption is on. *)
          let crng =
            if Mdst_util.Mutation.enabled "corrupt-shared-stream" then t.rng else vrng
          in
          Array.iter
            (fun nb ->
              match A.random_msg t.ctxs.(i) crng with
              | Some msg -> inject_with ~rng:crng t ~src:i ~dst:nb msg
              | None -> ())
            (Graph.neighbors t.graph i)
        end)
      victims;
    List.length victims

  (* ---------------------------------------------------------------- *)
  (* Faults. *)

  let install_faults t ?(remap = fun ~old_graph:_ ~new_graph:_ states -> states) plan =
    let n = Graph.n t.graph in
    let channel, scheduled =
      List.partition
        (fun ev ->
          match (ev : Fault.event) with
          | Drop _ | Duplicate _ | Reorder _ | Corrupt _ -> true
          | Crash _ | Cut _ | Link _ -> false)
        plan.Fault.events
    in
    if scheduled <> [] && t.k > 1 then
      invalid_arg
        "Pengine.install_faults: scheduled events (crash/cut/link) need a single shard";
    let by_channel = Hashtbl.create 16 in
    let last_window = ref min_int in
    List.iter
      (fun ev ->
        let src, dst, (window : Fault.window) =
          match (ev : Fault.event) with
          | Drop { src; dst; window; _ }
          | Duplicate { src; dst; window; _ }
          | Reorder { src; dst; window; _ }
          | Corrupt { src; dst; window; _ } ->
              (src, dst, window)
          | Crash _ | Cut _ | Link _ -> assert false
        in
        (* Events naming an impossible channel can never fire; indexing them
           would alias a real channel's key. *)
        if src >= 0 && src < n && dst >= 0 && dst < n && src <> dst then begin
          let key = (src * n) + dst in
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_channel key) in
          Hashtbl.replace by_channel key (prev @ [ (ev, Fault.rng_for plan ev) ]);
          last_window := max !last_window window.upto_round
        end)
      channel;
    let pending =
      List.stable_sort
        (fun (r1, _, _) (r2, _, _) -> compare r1 r2)
        (List.map
           (fun ev ->
             let r =
               match (ev : Fault.event) with
               | Crash { at_round; _ } | Cut { at_round; _ } | Link { at_round; _ } -> at_round
               | _ -> assert false
             in
             (r, ev, Fault.rng_for plan ev))
           scheduled)
    in
    t.windows_closed <- false;
    t.faults <- Some { by_channel; pending; fremap = remap; last_window = !last_window }

  let fault_stats t =
    Array.fold_left
      (fun (acc : Fault.stats) sh ->
        let s = sh.fstats in
        {
          Fault.drops = acc.Fault.drops + s.Fault.drops;
          duplicates = acc.Fault.duplicates + s.Fault.duplicates;
          reorders = acc.Fault.reorders + s.Fault.reorders;
          corruptions = acc.Fault.corruptions + s.Fault.corruptions;
          crashes = acc.Fault.crashes + s.Fault.crashes;
          cuts = acc.Fault.cuts + s.Fault.cuts;
          links = acc.Fault.links + s.Fault.links;
          skipped = acc.Fault.skipped + s.Fault.skipped;
        })
      Fault.zero_stats t.shards

  (* A channel event's window is compared against the causal round of the
     sending event, which can lag [rounds]: the windows stay open while a
     queued event is old enough to send inside one.  Event tags never
     fall below the least queued one, so once closed they stay closed. *)
  let windows_open t fs =
    (not t.windows_closed)
    && begin
         let oldest = ref (rounds t) in
         let see ev = if tag_ev ev < !oldest then oldest := tag_ev ev in
         Array.iter see t.armed;
         iter_chans t (fun ch -> iter_queue ch see);
         if !oldest > fs.last_window then t.windows_closed <- true;
         not t.windows_closed
       end

  let faults_pending t =
    match t.faults with
    | None -> false
    | Some fs ->
        fs.pending <> []
        || Array.exists (fun sh -> t.horizon <= sh.tampered_until) t.shards
        || windows_open t fs

  (* Fire every scheduled event whose round has been reached ([k = 1]
     only).  Cut / Link must keep the network inside the paper's model
     (connected, simple), so infeasible events are skipped and recorded as
     such — this is what lets the shrinker delete graph structure without
     invalidating plans. *)
  let apply_due_faults t fs =
    let sh = t.shards.(0) in
    let count f = sh.fstats <- f sh.fstats in
    let skip ~detail =
      count (fun s -> { s with Fault.skipped = s.Fault.skipped + 1 });
      note t sh ~kind:"skip" ~detail
    in
    let n = Graph.n t.graph in
    let rec go () =
      match fs.pending with
      | (r, ev, rng) :: rest when r <= rounds t ->
          fs.pending <- rest;
          (match (ev : Fault.event) with
          | Crash { node; mode; _ } ->
              if node < 0 || node >= n then
                skip ~detail:(fun () -> Printf.sprintf "crash %d out of range" node)
              else begin
                count (fun s -> { s with Fault.crashes = s.Fault.crashes + 1 });
                note t sh ~kind:"crash" ~detail:(fun () ->
                    Printf.sprintf "%d %s" node
                      (match mode with `Init -> "init" | `Random -> "random"));
                reset_node t ~rng mode node;
                Array.iter
                  (fun nb ->
                    ignore (purge_channel t ~src:node ~dst:nb);
                    ignore (purge_channel t ~src:nb ~dst:node))
                  (Graph.neighbors t.graph node)
              end
          | Cut { u; v; _ } ->
              if u < 0 || v < 0 || u >= n || v >= n || not (Graph.mem_edge t.graph u v) then
                skip ~detail:(fun () -> Printf.sprintf "cut %d-%d absent" u v)
              else begin
                let ids = Array.init n (Graph.id t.graph) in
                let edges =
                  List.filter
                    (fun (a, b) -> not ((a = u && b = v) || (a = v && b = u)))
                    (Array.to_list (Graph.edges t.graph))
                in
                let candidate = Graph.of_edges ~ids ~n edges in
                if not (Mdst_graph.Algo.is_connected candidate) then
                  skip ~detail:(fun () -> Printf.sprintf "cut %d-%d would disconnect" u v)
                else begin
                  count (fun s -> { s with Fault.cuts = s.Fault.cuts + 1 });
                  note t sh ~kind:"cut" ~detail:(fun () -> Printf.sprintf "%d-%d" u v);
                  reshape t ~remap:fs.fremap candidate
                end
              end
          | Link { u; v; _ } ->
              if u < 0 || v < 0 || u >= n || v >= n || u = v || Graph.mem_edge t.graph u v then
                skip ~detail:(fun () -> Printf.sprintf "link %d-%d infeasible" u v)
              else begin
                let ids = Array.init n (Graph.id t.graph) in
                let edges = (u, v) :: Array.to_list (Graph.edges t.graph) in
                count (fun s -> { s with Fault.links = s.Fault.links + 1 });
                note t sh ~kind:"link" ~detail:(fun () -> Printf.sprintf "%d-%d" u v);
                reshape t ~remap:fs.fremap (Graph.of_edges ~ids ~n edges)
              end
          | Drop _ | Duplicate _ | Reorder _ | Corrupt _ -> assert false);
          go ()
      | _ -> ()
    in
    go ()

  (* Checked before every step: allocates nothing unless an event is due. *)
  let due_faults t =
    match t.faults with
    | Some ({ pending = (r, _, _) :: _; _ } as fs) when r <= rounds t -> apply_due_faults t fs
    | Some _ | None -> ()

  (* ---------------------------------------------------------------- *)
  (* Sequential stepping. *)

  (* The shard holding the globally next event in (time, key) order. *)
  let next_shard t =
    Array.iter (skip_stale t) t.shards;
    Array.fold_left
      (fun best sh ->
        if Heap.is_empty sh.heap then best
        else if Heap.is_empty best.heap then sh
        else
          let p = Heap.top_prio sh.heap and q = Heap.top_prio best.heap in
          if p < q || (p = q && Heap.top_seq sh.heap < Heap.top_seq best.heap) then sh
          else best)
      t.shards.(0) t.shards

  let step t =
    due_faults t;
    reindex t;
    let sh =
      if t.k = 1 then begin
        skip_stale t t.shards.(0);
        t.shards.(0)
      end
      else next_shard t
    in
    (not (Heap.is_empty sh.heap))
    && begin
         execute t sh (Heap.drop_min sh.heap);
         settle t sh;
         true
       end

  (* With scheduled events pending (one shard only), events run one at a
     time so the events fire between them, as under [step]. *)
  let run_window t ~until =
    if t.poisoned then invalid_arg "Pengine.run_window: a previous window failed";
    if until > t.horizon then begin
      reindex t;
      match t.faults with
      | Some { pending = _ :: _; _ } ->
          let sh = t.shards.(0) in
          let rec go () =
            due_faults t;
            skip_stale t sh;
            if (not (Heap.is_empty sh.heap)) && Heap.top_prio sh.heap < until && step t then go ()
          in
          go ();
          sh.now <- until;
          t.horizon <- until
      | _ -> (
          let round = rounds t in
          Atomic.set t.done_count 0;
          Atomic.set t.abort false;
          t.running <- true;
          let doms =
            Array.init (t.k - 1) (fun i -> Domain.spawn (fun () -> worker t ~until (i + 1)))
          in
          worker t ~until 0;
          Array.iter Domain.join doms;
          t.running <- false;
          match Atomic.get t.failure with
          | Some (e, bt) ->
              t.poisoned <- true;
              Printexc.raise_with_backtrace e bt
          | None ->
              Array.iter
                (fun sh ->
                  ignore (drain_inboxes t sh);
                  sh.now <- until)
                t.shards;
              t.horizon <- until;
              if t.k > 1 then flush_notes t ~round)
    end

  (* ---------------------------------------------------------------- *)
  (* Schedule control: picks from the eligible set. *)

  (* Run an eligible event on its owner shard, out of heap order: its
     heap entry goes stale. *)
  let step_pick t ev =
    let owner = match ev with Tick { node; _ } -> node | Deliver { ch; _ } -> ch.dst in
    let sh = t.shards.(t.part.(owner)) in
    sh.stale <- sh.stale + 1;
    execute t sh ev;
    settle t sh;
    collect t

  (* The choice per tick, then per channel in [chans] order. *)
  let menu t =
    if Array.length t.menu = 0 then begin
      let delivers = Array.concat (Array.to_list t.chans) in
      t.menu <-
        Array.append
          (Array.init (Array.length t.armed) (fun node -> Choose_tick { node }))
          (Array.map (fun ch -> Choose_deliver { src = ch.src; dst = ch.dst }) delivers);
      t.picks <- Array.make (Array.length t.menu + 1) [||]
    end;
    t.menu

  (* The eligible set is every armed tick in node order, then the head of
     each non-empty ordered channel in [(src * n) + dst] order — the same
     set and order at every [k]. *)
  let step_with t ~choose =
    due_faults t;
    let menu = menu t in
    let n = Array.length t.armed in
    let len = ref n in
    for src = 0 to Array.length t.chans - 1 do
      let out = t.chans.(src) in
      for k = 0 to Array.length out - 1 do
        if out.(k).first != nil then incr len
      done
    done;
    let len = !len in
    if Array.length t.picks.(len) = 0 then t.picks.(len) <- Array.make len menu.(0);
    let picks = t.picks.(len) in
    (* Most slots already hold the right choice: skip the write barrier. *)
    let offer i c = if picks.(i) != c then picks.(i) <- c in
    for i = 0 to n - 1 do
      offer i menu.(i)
    done;
    let i = ref n and slot = ref n in
    for src = 0 to Array.length t.chans - 1 do
      let out = t.chans.(src) in
      for k = 0 to Array.length out - 1 do
        if out.(k).first != nil then begin
          offer !i menu.(!slot);
          incr i
        end;
        incr slot
      done
    done;
    let idx = choose picks in
    if idx < 0 || idx >= len then
      invalid_arg (Printf.sprintf "Pengine.step_with: choice %d out of range [0, %d)" idx len);
    (match picks.(idx) with
    | Choose_tick { node } -> step_pick t t.armed.(node)
    | Choose_deliver { src; dst } -> step_pick t (chan t src dst).first);
    true

  (* ---------------------------------------------------------------- *)
  (* The synchronous daemon: a scheduling policy over the eligible set.
     A round delivers every message sent before its barrier — those of
     the least causal round r queued — each node's in send order, nodes
     in index order; then every node ticks once, in index order.  Every
     event of round r has tag r, so what a round sends waits for the
     next one. *)

  (* The least eligible event in the policy's order — least causal round
     first; within a round, deliveries by destination then key, then
     ticks by node — in one walk. *)
  let sync_next t =
    let best = ref t.armed.(0) in
    let tag = ref (tag_ev !best) in
    for i = 1 to Array.length t.armed - 1 do
      let ev = t.armed.(i) in
      if tag_ev ev < !tag then begin
        best := ev;
        tag := tag_ev ev
      end
    done;
    (* [dst] is [max_int] while the best event is a tick. *)
    let dst = ref max_int and key = ref max_int in
    for src = 0 to Array.length t.chans - 1 do
      let out = t.chans.(src) in
      for k = 0 to Array.length out - 1 do
        match out.(k).first with
        | Deliver d as ev
          when d.tag < !tag
               || d.tag = !tag && (d.ch.dst < !dst || (d.ch.dst = !dst && d.key < !key)) ->
            best := ev;
            tag := d.tag;
            dst := d.ch.dst;
            key := d.key
        | Deliver _ | Tick _ -> ()
      done
    done;
    !best

  let step_sync t =
    due_faults t;
    step_pick t (sync_next t);
    true

  let sync_round t =
    due_faults t;
    let round = tag_ev (sync_next t) in
    let rec go () =
      due_faults t;
      let ev = sync_next t in
      if tag_ev ev = round then begin
        step_pick t ev;
        go ()
      end
    in
    go ()

  (* ---------------------------------------------------------------- *)
  (* Driver. *)

  type outcome = {
    converged : bool;
    rounds : int;
    time : float;
    deliveries : int;
  }

  let run t ?(max_rounds = 200_000) ?check_every ?(window = 8.0) ~stop () =
    let finished = ref (stop t) in
    (match check_every with
    | Some every when t.k = 1 ->
        let next_check = ref (rounds t + every) in
        while (not !finished) && rounds t <= max_rounds do
          if not (step t) then finished := true
          else if rounds t >= !next_check then begin
            next_check := rounds t + every;
            if stop t then finished := true
          end
        done
    | _ ->
        if window <= 0.0 then invalid_arg "Pengine.run: window must be positive";
        while (not !finished) && rounds t <= max_rounds do
          run_window t ~until:(t.horizon +. window);
          if stop t then finished := true
        done);
    { converged = stop t; rounds = rounds t; time = t.horizon; deliveries = deliveries t }
end
