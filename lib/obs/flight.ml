(* The flight recorder: a fixed-size ring of structured events, cheap
   enough to leave on in production.  Slots are preallocated and
   mutated in place, so recording an event allocates nothing beyond the
   strings the caller already built; when the ring wraps, the oldest
   events fall off — a dump always shows the most recent window before
   the incident, which is the window that explains it. *)

type event = {
  ts : int64;  (* monotonic ns *)
  kind : string;
  id : string;  (* request / trace id, "" when not request-scoped *)
  detail : string;
  v : int;
}

type slot = {
  mutable s_ts : int64;
  mutable s_kind : string;
  mutable s_id : string;
  mutable s_detail : string;
  mutable s_v : int;
}

let make_slot () = { s_ts = 0L; s_kind = ""; s_id = ""; s_detail = ""; s_v = 0 }

let default_capacity = 1024

type ring = {
  mutable slots : slot array;
  mutable total : int;  (* events ever recorded *)
}

let ring = { slots = Array.init default_capacity (fun _ -> make_slot ()); total = 0 }
let ring_mutex = Mutex.create ()

let on = ref false

let set_enabled b = on := b
let enabled () = !on

let set_capacity n =
  let n = max 1 n in
  Mutex.lock ring_mutex;
  ring.slots <- Array.init n (fun _ -> make_slot ());
  ring.total <- 0;
  Mutex.unlock ring_mutex

let clear () =
  Mutex.lock ring_mutex;
  ring.total <- 0;
  Mutex.unlock ring_mutex

let record ?(id = "") ?(detail = "") ?(v = 0) kind =
  if !on then begin
    let ts = Clock.now_ns () in
    Mutex.lock ring_mutex;
    let s = ring.slots.(ring.total mod Array.length ring.slots) in
    s.s_ts <- ts;
    s.s_kind <- kind;
    s.s_id <- id;
    s.s_detail <- detail;
    s.s_v <- v;
    ring.total <- ring.total + 1;
    Mutex.unlock ring_mutex
  end

let recorded () =
  Mutex.lock ring_mutex;
  let n = ring.total in
  Mutex.unlock ring_mutex;
  n

let events () =
  Mutex.lock ring_mutex;
  let cap = Array.length ring.slots in
  let kept = min ring.total cap in
  let first = ring.total - kept in
  let evs =
    List.init kept (fun i ->
        let s = ring.slots.((first + i) mod cap) in
        { ts = s.s_ts; kind = s.s_kind; id = s.s_id; detail = s.s_detail; v = s.s_v })
  in
  Mutex.unlock ring_mutex;
  evs

let dump buf =
  Mutex.lock ring_mutex;
  let cap = Array.length ring.slots in
  let total = ring.total in
  let kept = min total cap in
  let first = total - kept in
  (* Copy the window under the lock, render after releasing it. *)
  let evs =
    List.init kept (fun i ->
        let s = ring.slots.((first + i) mod cap) in
        { ts = s.s_ts; kind = s.s_kind; id = s.s_id; detail = s.s_detail; v = s.s_v })
  in
  Mutex.unlock ring_mutex;
  Buffer.add_string buf
    (Printf.sprintf
       "{\"capacity\": %d, \"recorded\": %d, \"dropped\": %d, \"events\": [" cap
       total (total - kept));
  List.iteri
    (fun i e ->
      Buffer.add_string buf (if i = 0 then "\n" else ",\n");
      Buffer.add_string buf
        (Printf.sprintf
           "  {\"ts_ns\": %Ld, \"kind\": \"%s\", \"id\": \"%s\", \
            \"detail\": \"%s\", \"v\": %d}"
           e.ts (Json.escape e.kind) (Json.escape e.id) (Json.escape e.detail)
           e.v))
    evs;
  Buffer.add_string buf "\n]}\n"

let write_file path =
  let buf = Buffer.create 4096 in
  dump buf;
  match open_out path with
  | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Buffer.output_buffer oc buf);
      Ok ()
  | exception Sys_error msg -> Error msg
