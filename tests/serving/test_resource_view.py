"""Pin every resource-view signal balancers and autoscalers read.

One case per replica entry kind — classification, generative decode and
prefill — with hand-built queue / accelerator / KV state, asserting the
exact load, work, weight, KV and capacity values the view reports.  The
view is read through :func:`view` so the cases state what a policy sees,
independent of how an entry exposes it.
"""

import numpy as np
import pytest

from repro.generative.decoding import (DecodeTimingModel, KVCacheAccountant,
                                       PrefillModel)
from repro.generative.sequences import SequenceSample
from repro.models.zoo import get_model
from repro.serving.disagg import PrefillReplicaEntry
from repro.serving.fleet import FleetState, ReplicaProfile
from repro.serving.generative_cluster import GenerativeReplicaEntry
from repro.serving.hf_pipelines import (ContinuousBatchingEngine,
                                        VanillaTokenPolicy)
from repro.serving.platform import BatchResult
from repro.serving.request import Request
from repro.serving.tfserve import TFServingPlatform
from repro.workloads.difficulty import InputSample

T5 = get_model("t5-large")


def view(entry):
    """The resource view a balancer or autoscaler reads for ``entry``."""
    return entry


def request(request_id):
    return Request(request_id=request_id, arrival_ms=0.0,
                   sample=InputSample(index=request_id, raw_difficulty=0.3,
                                      sharpness=0.05, confidence_shift=0.0),
                   slo_ms=1000.0)


def sequence(seq_id, tokens=4, prompt=0, group=None, shared=0):
    return SequenceSample(sequence_id=seq_id, arrival_ms=0.0,
                          token_difficulty=np.full(tokens, 0.3),
                          token_sharpness=np.full(tokens, 0.05),
                          prompt_tokens=prompt, prefix_group=group,
                          shared_prefix_tokens=shared)


def kv_signals(v, item, now_ms):
    return (v.kv_prefix_hit_tokens(item), v.kv_prefix_hit_ms(item),
            v.kv_overflow_ms(item, now_ms))


def test_classification_entry_view(resnet50_stack):
    _spec, profile, *_rest = resnet50_stack
    platform = TFServingPlatform(max_batch_size=4, profile=profile.scaled(2.0))
    fleet = FleetState()
    entry = fleet.add(platform, lambda batch, start: BatchResult(0.0, []),
                      ReplicaProfile(speed=2.0), now_ms=0.0)
    for i in range(6):
        entry.enqueue(request(i))
    entry.state.busy_until_ms = 30.0
    entry.state.serving_batch_size = 3
    v = view(entry)

    assert v.queue_length() == 6
    assert v.jobs_in_system(10.0) == 9
    assert v.jobs_in_system(30.0) == 6
    assert v.backlog_ms(10.0) == 20.0
    assert v.backlog_ms(40.0) == 0.0
    assert v.weight == 2.0
    assert v.max_batch_size == 4
    batch_ms = profile.total_latency_ms(4) / 2.0
    assert v.predicted_batch_time_ms(4) == pytest.approx(batch_ms, rel=1e-12)
    # Six queued requests are two full-size batches behind the backlog.
    assert v.work_left_ms(10.0) == pytest.approx(20.0 + 2 * batch_ms, rel=1e-12)
    assert kv_signals(v, request(9), 10.0) == (0, 0.0, 0.0)


def test_decode_entry_view():
    engine = ContinuousBatchingEngine(DecodeTimingModel(T5), max_batch_size=2)
    kv = KVCacheAccountant(capacity_bytes=300.0, bytes_per_token=1.0,
                           recompute_ms_per_token=0.5)
    entry = GenerativeReplicaEntry(replica_id=0, engine=engine,
                                   policy=VanillaTokenPolicy(),
                                   profile=ReplicaProfile(speed=2.0),
                                   mean_tokens=5.0, kv=kv)
    # A resident group-3 prefix of 40 tokens: (100 - 40 + 10) + 40 = 110.
    kv.admit(sequence(0, tokens=10, prompt=100, group=3, shared=40), 1e9)
    entry.enqueue(sequence(1, tokens=4))
    entry.enqueue(sequence(2, tokens=6))
    entry.slots[0] = 100.0
    v = view(entry)

    # An 18ms full decode step at speed 2.
    assert entry.expected_token_ms() == 9.0
    assert v.queue_length() == 2
    assert v.jobs_in_system(10.0) == 3
    assert v.jobs_in_system(100.0) == 2
    assert v.backlog_ms(10.0) == 0.0  # slot 1 is free
    assert v.weight == 2.0
    assert v.max_batch_size == 2
    assert v.predicted_batch_time_ms(2) == 45.0  # 5 mean tokens x 9ms
    # 90ms of the busy slot plus 10 queued tokens drained over 2 slots.
    assert v.work_left_ms(10.0) == 90.0 + 10 * 9.0 / 2

    member = sequence(9, tokens=20, prompt=250, group=3, shared=40)
    # Admitting adds 250 - 40 + 20 = 230 tokens: 110 + 230 - 300 = 40 over.
    assert kv_signals(v, member, 10.0) == (40, 20.0, 20.0)
    stranger = sequence(10, tokens=5, prompt=50)
    assert kv_signals(v, stranger, 10.0) == (0, 0.0, 0.0)


def test_prefill_entry_view():
    model = PrefillModel(T5, tokens_per_chunk=64)
    entry = PrefillReplicaEntry(replica_id=0, model=model,
                                profile=ReplicaProfile(speed=2.0),
                                prefill_batch=3, mean_prompt_tokens=100.0)
    entry.enqueue(sequence(1, prompt=100))
    entry.enqueue(sequence(2, prompt=30))
    entry.in_flight = [sequence(3, prompt=64)]
    # One 18ms chunk takes 9ms at speed 2; 1.5 chunks remain in flight.
    entry.busy_until_ms = 23.5
    v = view(entry)

    assert v.queue_length() == 2
    # Queued chunks 2 + 1, plus 1.5 chunks of the in-flight batch left.
    assert v.jobs_in_system(10.0) == 4.5
    assert v.jobs_in_system(28.0) == 3.0
    assert v.backlog_ms(10.0) == 13.5
    assert v.weight == 2.0
    assert v.max_batch_size == 3
    # 3 x 100 mean prompt tokens = 5 chunks of 64, at speed 2.
    assert v.predicted_batch_time_ms(3) == 5 * 9.0
    # 130 queued prompt tokens pack into 3 chunks behind the backlog.
    assert v.work_left_ms(10.0) == 13.5 + 3 * 9.0
    assert kv_signals(v, sequence(9, prompt=80, group=1, shared=40),
                      10.0) == (0, 0.0, 0.0)
