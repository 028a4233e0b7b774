type event = {
  name : string;
  cat : string;
  ph : char;  (* 'X' complete span, 'i' instant *)
  ts : int64;  (* monotonic ns *)
  dur : int64;  (* ns; 0 for instants *)
  tid : int;  (* domain id *)
  args : (string * string) list;
}

(* One buffer per domain, created lazily through domain-local storage
   and registered in a global list.  The owning domain pushes; the
   streaming drain (a server maintenance thread) swaps the list out
   from another thread, so both sides take the buffer's own mutex — an
   uncontended lock on the *enabled* path only; the disabled path is
   still one branch. *)
type buffer = {
  b_tid : int;
  b_mutex : Mutex.t;
  mutable events : event list;
  mutable count : int;
}

let buffers : buffer list ref = ref []
let buffers_mutex = Mutex.create ()

let dls_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          b_tid = (Domain.self () :> int);
          b_mutex = Mutex.create ();
          events = [];
          count = 0;
        }
      in
      Mutex.lock buffers_mutex;
      buffers := b :: !buffers;
      Mutex.unlock buffers_mutex;
      b)

let on = ref false

let set_enabled b = on := b
let enabled () = !on

(* Bounded buffering: beyond [capacity] events per domain buffer the
   newest are dropped (and counted) rather than growing without bound —
   a daemon tracing under sustained load must never let the trace eat
   the heap between stream flushes. *)
let capacity = ref max_int
let drop_count = Atomic.make 0

let set_capacity n = capacity := if n < 1 then max_int else n
let dropped_events () = Atomic.get drop_count

let record ev =
  let b = Domain.DLS.get dls_key in
  Mutex.lock b.b_mutex;
  if b.count >= !capacity then begin
    Mutex.unlock b.b_mutex;
    ignore (Atomic.fetch_and_add drop_count 1)
  end
  else begin
    b.events <- ev :: b.events;
    b.count <- b.count + 1;
    Mutex.unlock b.b_mutex
  end

let with_span ?(cat = "app") ?args name f =
  if not !on then f ()
  else begin
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_ns () in
        let args = match args with None -> [] | Some g -> g () in
        record
          {
            name;
            cat;
            ph = 'X';
            ts = t0;
            dur = Int64.max 0L (Int64.sub t1 t0);
            tid = (Domain.self () :> int);
            args;
          })
      f
  end

(* A span with explicit endpoints: the server synthesizes a request's
   admission/queue/map/respond tree from timestamps captured on
   different threads, emitting every piece on the finishing domain so
   the viewer nests them on one track. *)
let span_at ?(cat = "app") ?(args = []) ~ts ~dur name =
  if !on then
    record
      {
        name;
        cat;
        ph = 'X';
        ts;
        dur = Int64.max 0L dur;
        tid = (Domain.self () :> int);
        args;
      }

let instant ?(cat = "app") name =
  if !on then
    record
      {
        name;
        cat;
        ph = 'i';
        ts = Clock.now_ns ();
        dur = 0L;
        tid = (Domain.self () :> int);
        args = [];
      }

let all_events () =
  Mutex.lock buffers_mutex;
  let bufs = !buffers in
  Mutex.unlock buffers_mutex;
  let evs =
    List.concat_map
      (fun b ->
        Mutex.lock b.b_mutex;
        let evs = b.events in
        Mutex.unlock b.b_mutex;
        evs)
      bufs
  in
  List.sort
    (fun a b ->
      match Int64.compare a.ts b.ts with 0 -> compare a.tid b.tid | c -> c)
    evs

let event_count () =
  Mutex.lock buffers_mutex;
  let bufs = !buffers in
  Mutex.unlock buffers_mutex;
  List.fold_left
    (fun acc b ->
      Mutex.lock b.b_mutex;
      let n = b.count in
      Mutex.unlock b.b_mutex;
      acc + n)
    0 bufs

let clear () =
  Mutex.lock buffers_mutex;
  List.iter
    (fun b ->
      Mutex.lock b.b_mutex;
      b.events <- [];
      b.count <- 0;
      Mutex.unlock b.b_mutex)
    !buffers;
  Mutex.unlock buffers_mutex;
  Atomic.set drop_count 0

(* Swap every buffer empty and return the drained events in timestamp
   order — the streaming sink's unit of work. *)
let drain () =
  Mutex.lock buffers_mutex;
  let bufs = !buffers in
  Mutex.unlock buffers_mutex;
  let evs =
    List.concat_map
      (fun b ->
        Mutex.lock b.b_mutex;
        let evs = b.events in
        b.events <- [];
        b.count <- 0;
        Mutex.unlock b.b_mutex;
        evs)
      bufs
  in
  List.sort
    (fun a b ->
      match Int64.compare a.ts b.ts with 0 -> compare a.tid b.tid | c -> c)
    evs

(* ---------------- Chrome trace-event JSON ---------------- *)

(* Timestamps are rebased to the first event and emitted in
   microseconds, the unit the trace-event format specifies. *)
let us_of_ns base ns = Int64.to_float (Int64.sub ns base) /. 1e3

let add_args buf args =
  Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "\"%s\": \"%s\"" (Json.escape k) (Json.escape v)))
    args;
  Buffer.add_string buf "}"

let add_process_meta buf process_name =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
        \"args\": {\"name\": \"%s\"}}"
       (Json.escape process_name))

let add_thread_meta buf tid =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \
        \"tid\": %d, \"args\": {\"name\": \"domain %d\"}}"
       tid tid)

let add_event buf base e =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", \"ts\": %.3f, "
       (Json.escape e.name) (Json.escape e.cat) e.ph (us_of_ns base e.ts));
  if e.ph = 'X' then
    Buffer.add_string buf
      (Printf.sprintf "\"dur\": %.3f, " (Int64.to_float e.dur /. 1e3))
  else Buffer.add_string buf "\"s\": \"t\", ";
  Buffer.add_string buf (Printf.sprintf "\"pid\": 0, \"tid\": %d" e.tid);
  if e.args <> [] then begin
    Buffer.add_string buf ", \"args\": ";
    add_args buf e.args
  end;
  Buffer.add_string buf "}"

let export ?(process_name = "soi_domino") buf =
  let evs = all_events () in
  let base = match evs with [] -> 0L | e :: _ -> e.ts in
  Buffer.add_string buf "{\"traceEvents\": [\n  ";
  (* Metadata: a process name, and one thread name per domain track. *)
  add_process_meta buf process_name;
  let tids = List.sort_uniq compare (List.map (fun e -> e.tid) evs) in
  List.iter
    (fun tid ->
      Buffer.add_string buf ",\n  ";
      add_thread_meta buf tid)
    tids;
  List.iter
    (fun e ->
      Buffer.add_string buf ",\n  ";
      add_event buf base e)
    evs;
  Buffer.add_string buf "\n]}\n"

let write_file ?process_name path =
  let buf = Buffer.create 4096 in
  export ?process_name buf;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Buffer.output_buffer oc buf)

(* ---------------- streaming sink ---------------- *)

(* A long-running daemon cannot hold its whole trace in memory; instead
   it opens a stream and periodically drains completed events into it.
   The file is the JSON-*array* flavour of the trace-event format: the
   viewers accept a bare array, and explicitly tolerate a missing
   closing bracket — so a trace cut short by a crash still loads, and a
   clean {!stream_close} terminates it properly. *)
type stream = {
  s_oc : out_channel;
  s_base : int64;
  mutable s_tids : int list;  (* thread-name metadata already emitted *)
}

let stream_state : stream option ref = ref None
let stream_mutex = Mutex.create ()

let stream_write st evs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      if not (List.mem e.tid st.s_tids) then begin
        st.s_tids <- e.tid :: st.s_tids;
        Buffer.add_string buf ",\n";
        add_thread_meta buf e.tid
      end;
      Buffer.add_string buf ",\n";
      add_event buf st.s_base e)
    evs;
  Buffer.output_buffer st.s_oc buf;
  flush st.s_oc

let stream_open ?(process_name = "soimapd") path =
  Mutex.lock stream_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock stream_mutex) @@ fun () ->
  match !stream_state with
  | Some _ -> Error "trace stream already open"
  | None -> (
      match open_out path with
      | oc ->
          let buf = Buffer.create 256 in
          Buffer.add_string buf "[\n";
          add_process_meta buf process_name;
          Buffer.output_buffer oc buf;
          flush oc;
          stream_state :=
            Some { s_oc = oc; s_base = Clock.now_ns (); s_tids = [] };
          Ok ()
      | exception Sys_error msg -> Error msg)

let stream_flush () =
  Mutex.lock stream_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock stream_mutex) @@ fun () ->
  match !stream_state with
  | None -> ()
  | Some st -> ( match drain () with [] -> () | evs -> stream_write st evs)

let stream_close () =
  Mutex.lock stream_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock stream_mutex) @@ fun () ->
  match !stream_state with
  | None -> ()
  | Some st ->
      (match drain () with [] -> () | evs -> stream_write st evs);
      output_string st.s_oc "\n]\n";
      close_out_noerr st.s_oc;
      stream_state := None

let streaming () =
  Mutex.lock stream_mutex;
  let s = !stream_state <> None in
  Mutex.unlock stream_mutex;
  s

(* ---------------- flat summary ---------------- *)

let summary () =
  let tbl : (string, int ref * int64 ref * int64 ref) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun e ->
      if e.ph = 'X' then begin
        let count, total, maxd =
          match Hashtbl.find_opt tbl e.name with
          | Some cell -> cell
          | None ->
              let cell = (ref 0, ref 0L, ref 0L) in
              Hashtbl.replace tbl e.name cell;
              cell
        in
        Stdlib.incr count;
        total := Int64.add !total e.dur;
        if Int64.compare e.dur !maxd > 0 then maxd := e.dur
      end)
    (all_events ());
  Hashtbl.fold (fun name (c, t, m) acc -> (name, !c, !t, !m) :: acc) tbl []
  |> List.sort (fun (na, _, ta, _) (nb, _, tb, _) ->
         match Int64.compare tb ta with 0 -> compare na nb | c -> c)

let summary_text () =
  match summary () with
  | [] -> ""
  | rows ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf "%-36s %8s %12s %12s\n" "span" "count" "total ms"
           "max ms");
      List.iter
        (fun (name, count, total, maxd) ->
          Buffer.add_string buf
            (Printf.sprintf "%-36s %8d %12.3f %12.3f\n" name count
               (Clock.ns_to_ms total) (Clock.ns_to_ms maxd)))
        rows;
      Buffer.contents buf
