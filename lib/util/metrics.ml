type measurement = {
  wall_s : float;
  alloc_bytes : float;
  major_words : float;
  promoted_words : float;
}

let zero =
  { wall_s = 0.0; alloc_bytes = 0.0; major_words = 0.0; promoted_words = 0.0 }

let add a b =
  {
    wall_s = a.wall_s +. b.wall_s;
    alloc_bytes = a.alloc_bytes +. b.alloc_bytes;
    major_words = a.major_words +. b.major_words;
    promoted_words = a.promoted_words +. b.promoted_words;
  }

exception Timeout

let now () = Unix.gettimeofday ()

external now_mono : unit -> (float[@unboxed])
  = "pinpoint_now_mono" "pinpoint_now_mono_unboxed"
[@@noalloc]

external peak_rss_kb : unit -> int = "pinpoint_peak_rss_kb" [@@noalloc]

(* [Gc.allocated_bytes] only counts the calling domain's allocation, so a
   phase that fans work out to a pool would under-report; [extra_alloc]
   lets the caller fold the workers' own counters into the measurement.
   Elapsed time comes from the monotonic clock, so it cannot go negative;
   the clamp is kept as a belt against platforms where the stub falls
   back to [gettimeofday]. *)
let measure ?(extra_alloc = fun () -> 0.0) f =
  let x0 = extra_alloc () in
  let a0 = Gc.allocated_bytes () in
  let s0 = Gc.quick_stat () in
  let t0 = now_mono () in
  let r = f () in
  let t1 = now_mono () in
  let s1 = Gc.quick_stat () in
  let a1 = Gc.allocated_bytes () in
  let x1 = extra_alloc () in
  ( r,
    {
      wall_s = Float.max 0.0 (t1 -. t0);
      alloc_bytes = Float.max 0.0 (a1 -. a0 +. (x1 -. x0));
      major_words = s1.Gc.major_words -. s0.Gc.major_words;
      promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    } )

type deadline = float (* absolute time; infinity = none *)

let no_deadline = infinity
let immediate = neg_infinity
let deadline_after s = if s <= 0.0 then infinity else now () +. s
let min_deadline a b = Float.min a b
let expired d = now () > d
let check d = if expired d then raise Timeout

let wait_until d =
  if d <> infinity then
    while not (expired d) do
      ignore (Unix.select [] [] [] 0.0005)
    done

let with_timeout budget f =
  let _ = budget in
  try Some (f ()) with Timeout -> None

let pp_bytes ppf b =
  let abs = Float.abs b in
  if abs >= 1.0e9 then Format.fprintf ppf "%.2fGB" (b /. 1.0e9)
  else if abs >= 1.0e6 then Format.fprintf ppf "%.2fMB" (b /. 1.0e6)
  else if abs >= 1.0e3 then Format.fprintf ppf "%.2fKB" (b /. 1.0e3)
  else Format.fprintf ppf "%.0fB" b

let pp_duration ppf s =
  let abs = Float.abs s in
  if abs >= 60.0 then Format.fprintf ppf "%.1fmin" (s /. 60.0)
  else if abs >= 1.0 then Format.fprintf ppf "%.2fs" s
  else if abs >= 1.0e-3 then Format.fprintf ppf "%.2fms" (s *. 1.0e3)
  else Format.fprintf ppf "%.0fus" (s *. 1.0e6)
